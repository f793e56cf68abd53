package client

import (
	"context"
	"sync"
	"time"

	"jiffy/internal/core"
)

// Renewer periodically renews leases for a set of prefixes — the
// client-side renewal loop a job's master process runs for its active
// tasks (§3.2, §5.1 "The master process handles explicit lease
// renewals"). Thanks to hierarchical propagation, renewing one prefix
// per running task suffices to keep all dependent data alive.
type Renewer struct {
	c        *Client
	interval time.Duration

	mu    sync.Mutex
	paths map[core.Path]struct{}

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartRenewer launches a renewal loop at the given interval (a
// fraction of the lease duration; the paper renews 1s leases a few
// times per second). The renewer is attached to the client and stopped
// by Client.Close.
func (c *Client) StartRenewer(interval time.Duration, paths ...core.Path) *Renewer {
	r := &Renewer{
		c:        c,
		interval: interval,
		paths:    make(map[core.Path]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, p := range paths {
		r.paths[p] = struct{}{}
	}
	c.mu.Lock()
	c.renewers[r] = struct{}{}
	c.mu.Unlock()
	go r.loop()
	return r
}

// Add registers more prefixes to renew.
func (r *Renewer) Add(paths ...core.Path) {
	r.mu.Lock()
	for _, p := range paths {
		r.paths[p] = struct{}{}
	}
	r.mu.Unlock()
}

// Remove stops renewing the given prefixes (a finished task releases
// its claim; the lease lapses and Jiffy reclaims the memory).
func (r *Renewer) Remove(paths ...core.Path) {
	r.mu.Lock()
	for _, p := range paths {
		delete(r.paths, p)
	}
	r.mu.Unlock()
}

// Stop halts the loop and detaches the renewer from its client.
// Idempotent.
func (r *Renewer) Stop() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
	r.c.mu.Lock()
	delete(r.c.renewers, r)
	r.c.mu.Unlock()
}

func (r *Renewer) loop() {
	defer close(r.done)
	ticker := time.NewTicker(r.interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.renewOnce()
		}
	}
}

func (r *Renewer) renewOnce() {
	r.mu.Lock()
	paths := make([]core.Path, 0, len(r.paths))
	for p := range r.paths {
		paths = append(paths, p)
	}
	r.mu.Unlock()
	if len(paths) == 0 {
		return
	}
	// Renewal failures are retried on the next tick; the flush-on-
	// expiry guarantee means a transient failure cannot lose data.
	// The session RPC timeout bounds the sweep; no per-tick deadline,
	// since a late renewal is still better than a dropped one.
	r.c.RenewLease(context.Background(), paths...)
}
