package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"jiffy"
	"jiffy/internal/core"
)

// prefixChurn loops a task lifecycle from one caller over TCP loopback
// on 2 servers without replication: CreatePrefix (a 1-block KV) under
// a job stage, OpenKV, one Put, RenewLease and RemovePrefix. Four of
// the five calls are control-plane calls.
type prefixChurn struct {
	warm      int64
	seq       atomic.Int64
	freeStart int // controller free blocks once the stage exists
}

const (
	churnStage = core.Path("churn/stage")
	// churnCheckEvery spaces the gone-after-remove checks, which cost a
	// control call each and sit outside the timed lifecycle.
	churnCheckEvery = 16
)

// churnCalls names the timed client calls of one lifecycle, in order.
var churnCalls = []string{"create_prefix", "open", "put", "renew_lease", "remove_prefix"}

func newPrefixChurn(scale float64) *prefixChurn {
	return &prefixChurn{warm: int64(scaled(200, scale))}
}

func (w *prefixChurn) shape() shape {
	return shape{unitSeries: "unit", spanSeries: []string{"unit"}, writeSeries: "client.put", unitTailQ: 99, writeTailQ: 99,
		unitName: "lifecycle", warm: w.warm, callers: 1}
}

func (w *prefixChurn) setup(ctx context.Context) (*env, error) {
	e, err := boot(ctx, jiffy.ClusterOptions{Config: baseConfig(), Servers: 2, Transport: "tcp", BlocksPerServer: 256})
	if err != nil {
		return nil, err
	}
	if err := e.client.RegisterJob(ctx, churnStage.Job()); err != nil {
		e.close()
		return nil, fmt.Errorf("register churn job: %w", err)
	}
	if _, _, err := e.client.CreatePrefix(ctx, churnStage, nil, core.DSNone, 0, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("create stage: %w", err)
	}
	w.freeStart = e.cl.Controller.Stats().FreeBlocks
	if err := warmUp(ctx, w, e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (w *prefixChurn) drive(ctx context.Context, e *env, c *jiffy.Client, b budget, r *recorder) error {
	for n := int64(0); !b.done(n); n++ {
		i := w.seq.Add(1)
		p := churnStage.MustChild(fmt.Sprintf("t%d", i))
		lctx, trace := r.spans.newTrace(ctx)
		var kv *jiffy.KV
		steps := [...]func() error{
			func() error { _, _, err := c.CreatePrefix(lctx, p, nil, core.DSKV, 1, 0); return err },
			func() (err error) { kv, err = c.OpenKV(lctx, p); return err },
			func() error { return kv.Put(lctx, "k", []byte(p)) },
			func() error { _, err := c.RenewLease(lctx, p); return err },
			func() error { return c.RemovePrefix(lctx, p) },
		}
		var took [len(steps)]time.Duration
		r.attempted.Add(1)
		start := time.Now()
		var err error
		for s, step := range steps {
			t0 := time.Now()
			err = step()
			took[s] = time.Since(t0)
			r.spans.record(layerCall, trace, t0, took[s])
			if err != nil {
				err = fmt.Errorf("lifecycle %d: %s: %w", i, churnCalls[s], err)
				break
			}
		}
		end := time.Now()
		if err != nil {
			r.fail(err)
			continue
		}
		r.units.Add(1)
		r.items.Add(1)
		r.observe("unit", end.Sub(start))
		r.spans.record(layerUnit, trace, start, end.Sub(start))
		for s, d := range took {
			r.observe("client."+churnCalls[s], d)
		}
		if i%churnCheckEvery == 0 {
			if _, err := c.OpenKV(ctx, p); !errors.Is(err, core.ErrNotFound) {
				r.violation("open %s after remove: err = %v, want not found", p, err)
			}
		}
	}
	return nil
}

// finish checks that every lifecycle cleaned up after itself: no task
// prefix is left under the stage, and the controller's free-block
// count is back where it started.
func (w *prefixChurn) finish(ctx context.Context, e *env, r *recorder) error {
	prefixes, err := e.client.ListPrefixes(ctx, churnStage.Job())
	if err != nil {
		return fmt.Errorf("list prefixes: %w", err)
	}
	for _, p := range prefixes {
		if strings.HasPrefix(string(p.Path), string(churnStage)+"/") {
			r.violation("prefix %s left after remove", p.Path)
			break
		}
	}
	// Blocks are returned to the free list as removal completes.
	deadline := time.Now().Add(5 * time.Second)
	free := e.cl.Controller.Stats().FreeBlocks
	for free != w.freeStart && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		free = e.cl.Controller.Stats().FreeBlocks
	}
	if free != w.freeStart {
		r.violation("controller has %d free blocks after the run, want %d", free, w.freeStart)
	}
	return nil
}

func (w *prefixChurn) layers(r *recorder, e *env) []Metric {
	var out []Metric
	for _, call := range churnCalls {
		m, _ := quantileMetric("client."+call+"_us_p50", r.get("client."+call), 50, "us")
		out = append(out, m)
	}
	return out
}

func (w *prefixChurn) storeNs(p probes) float64 { return p.kvPutNs }
