package client

import (
	"testing"
	"time"

	"jiffy/internal/core"
)

// TestRenewerStopDetaches runs many start/stop cycles, as back-to-back
// jobs on one client do: a stopped renewer must not stay attached to
// the client (with its path set and channels) until Close.
func TestRenewerStopDetaches(t *testing.T) {
	c := &Client{renewers: make(map[*Renewer]struct{})}
	for i := 0; i < 100; i++ {
		r := c.StartRenewer(time.Hour, core.Path("job/t"))
		r.Stop()
		r.Stop() // idempotent
	}
	keep := c.StartRenewer(time.Hour)
	c.mu.Lock()
	n := len(c.renewers)
	_, kept := c.renewers[keep]
	c.mu.Unlock()
	if n != 1 || !kept {
		t.Fatalf("client holds %d renewers (running one attached: %v), want only the running one", n, kept)
	}
	keep.Stop()
	if len(c.renewers) != 0 {
		t.Fatalf("client holds %d renewers after the last stop", len(c.renewers))
	}
}
