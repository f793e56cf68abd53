package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jiffy"
)

// recorder collects what one measured slice of a workload did: named
// duration series, work counts, failures, output-check violations and,
// in traced slices, spans.
type recorder struct {
	mu       sync.Mutex
	series   map[string]series
	wrong    []string
	firstErr string

	units     atomic.Int64 // units of work completed
	items     atomic.Int64 // work items completed (records, words, ops, lifecycles)
	attempted atomic.Int64 // units attempted
	failed    atomic.Int64 // units that returned an error

	spans *spanLog // nil in untraced slices
}

func newRecorder(spans *spanLog) *recorder {
	return &recorder{series: map[string]series{}, spans: spans}
}

// observe appends one duration to a named series.
func (r *recorder) observe(name string, d time.Duration) {
	r.mu.Lock()
	s := r.series[name]
	s.add(d)
	r.series[name] = s
	r.mu.Unlock()
}

// extend appends a caller's locally gathered samples to a named series.
func (r *recorder) extend(name string, s series) {
	r.mu.Lock()
	r.series[name] = append(r.series[name], s...)
	r.mu.Unlock()
}

// get returns a copy of a named series.
func (r *recorder) get(name string) series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(series(nil), r.series[name]...)
}

// violation records an output-check failure; any one fails the run.
func (r *recorder) violation(format string, args ...any) {
	r.mu.Lock()
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// fail counts a unit that returned an error and keeps the first error.
func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.mu.Lock()
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
	r.mu.Unlock()
}

// violations returns the recorded output-check failures.
func (r *recorder) violations() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.wrong...)
}

// sampleBytes is the heap the recorder's own sample buffers hold, which
// heap_mb leaves out.
func (r *recorder) sampleBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, s := range r.series {
		n += int64(cap(s)) * 8
	}
	return n
}

// merge folds another recorder's results into r.
func (r *recorder) merge(o *recorder) {
	o.mu.Lock()
	for k, s := range o.series {
		r.extend(k, s)
	}
	wrong := append([]string(nil), o.wrong...)
	firstErr := o.firstErr
	o.mu.Unlock()
	r.mu.Lock()
	if r.firstErr == "" {
		r.firstErr = firstErr
	}
	r.mu.Unlock()
	for _, w := range wrong {
		r.violation("%s", w)
	}
	r.units.Add(o.units.Load())
	r.items.Add(o.items.Load())
	r.attempted.Add(o.attempted.Load())
	r.failed.Add(o.failed.Load())
}

// env is one booted deployment: an in-process cluster and the client
// that carries the load.
type env struct {
	cl     *jiffy.Cluster
	client *jiffy.Client
}

// boot starts a cluster and dials one client with default options.
func boot(ctx context.Context, opts jiffy.ClusterOptions) (*env, error) {
	cl, err := jiffy.StartCluster(opts)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	c, err := cl.Connect(ctx)
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return &env{cl: cl, client: c}, nil
}

func (e *env) close() {
	e.client.Close()
	e.cl.Close()
}

// budget bounds one drive: it ends at the deadline or after a number
// of units, whichever comes first (zero means no bound of that kind).
type budget struct {
	until time.Time
	units int64
}

// done reports whether a workload that has started n units should stop.
func (b budget) done(n int64) bool {
	if b.units > 0 && n >= b.units {
		return true
	}
	return !b.until.IsZero() && !time.Now().Before(b.until)
}

// workload is one of the benchmark's seeded load patterns.
type workload interface {
	// setup boots a fresh deployment, preloads it and warms it up.
	setup(ctx context.Context) (*env, error)
	// drive runs units of work through client c (e's own client, or a
	// traced one on the same cluster) until the budget is spent.
	drive(ctx context.Context, e *env, c *jiffy.Client, b budget, r *recorder) error
	// finish checks the deployment's end state after the last drive.
	finish(ctx context.Context, e *env, r *recorder) error
	// shape describes how the workload's figures are reported.
	shape() shape
	// layers returns the workload's own per-layer figures from a traced
	// slice's recorder.
	layers(r *recorder, e *env) []Metric
	// storeNs estimates the blockstore time of one applied op from the
	// standalone probes, for the workload's mix of data structures.
	storeNs(p probes) float64
}

// warmUp drives a workload's warm-up units through its own client.
// The units are timed into setup_s, not into the measured figures.
func warmUp(ctx context.Context, w workload, e *env) error {
	r := newRecorder(nil)
	if err := w.drive(ctx, e, e.client, budget{units: w.shape().warm}, r); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if v := r.violations(); len(v) > 0 {
		return fmt.Errorf("warm-up: %s", v[0])
	}
	if n := r.failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d units failed, first: %s", n, r.firstErr)
	}
	return nil
}

// shape names what a workload's units and writes are, which percentile
// is their tail, and how the workload is warmed up and run.
type shape struct {
	unitSeries  string   // series of unit durations
	spanSeries  []string // series whose samples are the traced unit spans
	writeSeries string   // series of write durations
	unitTailQ   float64  // tail percentile of units
	writeTailQ  float64  // tail percentile of writes
	unitName    string   // what one unit is, for the report
	warm        int64    // warm-up units run in every setup
	callers     int      // units of work in flight at once
}
