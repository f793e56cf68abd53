package jiffy_test

// Allocation gates for the single-op hot path. Client and servers
// share the process over mem://, so the measured count covers the
// whole round trip: request encode, wire framing, server dispatch,
// response decode. The ceilings pin the pooled fast path — inline
// frames, recycled waiters, borrowed response buffers — so a stray
// per-call allocation (a lost pooled buffer, a regrown channel, an
// escaping frame struct) fails the test rather than quietly eroding
// the single-digit-microsecond budget.
//
// The counts are asserted only in non-race builds: the race runtime
// deliberately drops a share of sync.Pool puts, so pooled frames and
// waiters are re-allocated and counted. Under -race the round trips
// still run, as a race check of the pooled path.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jiffy"
	"jiffy/internal/core"
)

func allocCluster(t *testing.T) *jiffy.Client {
	t.Helper()
	cfg := core.TestConfig()
	cfg.BlockSize = core.MB
	cfg.LeaseDuration = time.Hour
	cluster, err := jiffy.StartCluster(jiffy.ClusterOptions{
		Config: cfg, Servers: 1, BlocksPerServer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	c, err := cluster.Connect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestKVPutSingleAllocs pins the put round trip. Keys are pre-written
// so the measured puts are steady-state overwrites, not hash-map
// growth.
func TestKVPutSingleAllocs(t *testing.T) {
	c := allocCluster(t)
	c.RegisterJob(context.Background(), "allocs")
	if _, _, err := c.CreatePrefix(context.Background(), "allocs/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "allocs/kv")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := kv.Put(context.Background(), keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		if err := kv.Put(context.Background(), keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 6 && !raceEnabled {
		t.Fatalf("KV put single-op allocates %.1f objects/op, want <= 6", allocs)
	}
}

// TestKVGetSingleAllocs pins the get round trip, including the
// borrowed-response copy-out (one exact-size value allocation).
func TestKVGetSingleAllocs(t *testing.T) {
	c := allocCluster(t)
	c.RegisterJob(context.Background(), "allocs")
	if _, _, err := c.CreatePrefix(context.Background(), "allocs/kv", nil, jiffy.DSKV, 4, 0); err != nil {
		t.Fatal(err)
	}
	kv, err := c.OpenKV(context.Background(), "allocs/kv")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 64)
	val := make([]byte, 128)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		if err := kv.Put(context.Background(), keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		v, err := kv.Get(context.Background(), keys[i%len(keys)])
		if err != nil || len(v) != len(val) {
			t.Fatalf("get: %d bytes, %v", len(v), err)
		}
		i++
	})
	if allocs > 8 && !raceEnabled {
		t.Fatalf("KV get single-op allocates %.1f objects/op, want <= 8", allocs)
	}
}

// TestQueueEnqueueSingleAllocs pins the enqueue round trip. Segment
// growth amortizes across ops, so the ceiling carries a small margin
// over the steady-state count.
func TestQueueEnqueueSingleAllocs(t *testing.T) {
	c := allocCluster(t)
	c.RegisterJob(context.Background(), "allocs")
	if _, _, err := c.CreatePrefix(context.Background(), "allocs/q", nil, jiffy.DSQueue, 1, 0); err != nil {
		t.Fatal(err)
	}
	q, err := c.OpenQueue(context.Background(), "allocs/q")
	if err != nil {
		t.Fatal(err)
	}
	item := make([]byte, 64)
	allocs := testing.AllocsPerRun(300, func() {
		if err := q.Enqueue(context.Background(), item); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 && !raceEnabled {
		t.Fatalf("queue enqueue single-op allocates %.1f objects/op, want <= 5", allocs)
	}
}
