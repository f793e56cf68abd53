package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jiffy"
	"jiffy/internal/core"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"mr-wordcount", "stream-wordcount", "kv-zipf", "prefix-churn"}

func newWorkload(name string, seed int64, scale float64) (workload, error) {
	switch name {
	case "mr-wordcount":
		return newMRWordcount(seed, scale), nil
	case "stream-wordcount":
		return newStreamWordcount(seed, scale), nil
	case "kv-zipf":
		return newKVZipf(seed, scale), nil
	case "prefix-churn":
		return newPrefixChurn(scale), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// baseConfig is the laptop-scale test configuration with leases long
// enough that nothing a workload keeps expires during a run.
func baseConfig() core.Config {
	c := core.TestConfig()
	c.LeaseDuration = 10 * time.Minute
	c.LeaseScanPeriod = core.DefaultLeaseScanPeriod
	return c
}

// scaled shrinks a size for smoke runs, never below 1.
func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // input sizes relative to a full run
	setups   int     // setups per run; setup_s is their median
	probeN   int     // iterations per probe round
	// strict fails the run when a tail percentile lacks samples.
	strict bool
	// out is where a traced run writes its report and spans ("" for
	// nowhere).
	out string
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           []Metric // the figures BENCHMARK.json names
	report            []Metric // further figures for the printed report
	lines             []string // printed-only notes
}

// spanLimit bounds a traced run's in-memory span log (32 bytes each).
const spanLimit = 2_000_000

// run sets the workload up opts.setups times, keeping the last
// deployment, measures it, and checks its outputs.
func run(ctx context.Context, w workload, o options) (*result, error) {
	var e *env
	var err error
	var setups []float64
	for i := 0; i < max(1, o.setups); i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	seconds := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return measureLayers(ctx, w, e, o, seconds)
	}

	r := newRecorder(nil)
	progressed := sampleProgress(r, seconds/rateTicks)
	if err := w.drive(ctx, e, e.client, budget{until: time.Now().Add(seconds)}, r); err != nil {
		progressed()
		return nil, err
	}
	rates := windowRates(progressed())
	heap := float64(liveHeap() - r.sampleBytes())
	if err := w.finish(ctx, e, r); err != nil {
		return nil, err
	}
	ms, writeTail, errs := endToEnd(w, r, rates, setups, heap)
	if o.strict && len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	res := outcome(r)
	res.metrics = ms
	res.report = append([]Metric{writeTail}, aliases(o.workload, append(ms, writeTail), r)...)
	sh := w.shape()
	for _, s := range []string{sh.unitSeries, sh.writeSeries} {
		res.lines = append(res.lines, ladder(s, r.get(s)))
	}
	return res, nil
}

// items_per_s is the median rate over windows of the measured phase, so
// a second in which the host stalls the process moves one window, not
// the figure. There are up to maxRateWindows windows, and as many fewer
// as it takes for each to hold minWindowUnits units on average, so that
// whole units completing on either side of a boundary barely move a
// window's rate. The phase is sampled rateTicks times.
const (
	maxRateWindows = 20
	minWindowUnits = 100
	rateTicks      = 400
)

// progress is the recorder's completed work at one instant.
type progress struct {
	at           time.Time
	units, items int64
}

// sampleProgress samples r's completed work every tick until the
// returned function is called; that function stops the sampler and
// returns the samples, the first taken at the start.
func sampleProgress(r *recorder, tick time.Duration) func() []progress {
	stop := make(chan struct{})
	done := make(chan []progress)
	now := func() progress { return progress{time.Now(), r.units.Load(), r.items.Load()} }
	go func() {
		ps := []progress{now()}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- append(ps, now())
				return
			case <-t.C:
				ps = append(ps, now())
			}
		}
	}()
	return func() []progress {
		close(stop)
		return <-done
	}
}

// windowRates cuts the samples into equal windows and returns each
// window's item rate.
func windowRates(ps []progress) []float64 {
	if len(ps) < 2 {
		return nil
	}
	last := ps[len(ps)-1]
	k := int(min(int64(maxRateWindows), (last.units-ps[0].units)/minWindowUnits))
	k = max(1, min(k, len(ps)-1))
	rates := make([]float64, k)
	for i := range rates {
		a, b := ps[i*(len(ps)-1)/k], ps[(i+1)*(len(ps)-1)/k]
		rates[i] = float64(b.items-a.items) / b.at.Sub(a.at).Seconds()
	}
	return rates
}

// outcome fills the correctness and failure counts from a recorder.
func outcome(r *recorder) *result {
	v := r.violations()
	res := &result{correct: len(v) == 0, attempted: r.attempted.Load(), failed: r.failed.Load()}
	for _, s := range v {
		res.lines = append(res.lines, "output check failed: "+s)
	}
	r.mu.Lock()
	if r.firstErr != "" {
		res.lines = append(res.lines, "first failure: "+r.firstErr)
	}
	r.mu.Unlock()
	return res
}

// liveHeap is the Go heap still live after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// tracedSlices is how many slices a traced run's measured phase is cut
// into; they alternate untraced and traced so both see the same
// conditions.
const tracedSlices = 4

// measureLayers runs the traced measurement: alternating slices on the
// workload's own client and on a second client with the tracing
// exporter on, scraping every registry around each slice.
func measureLayers(ctx context.Context, w workload, e *env, o options, seconds time.Duration) (*result, error) {
	log := newSpanLog(spanLimit)
	tc, err := e.cl.Connect(ctx, jiffy.WithTracing(log))
	if err != nil {
		return nil, fmt.Errorf("connect traced client: %w", err)
	}
	defer tc.Close()
	// Warm the traced client's sessions as setup warmed the plain one.
	if err := w.drive(ctx, e, tc, budget{units: w.shape().warm}, newRecorder(nil)); err != nil {
		return nil, fmt.Errorf("warm traced client: %w", err)
	}
	log.reset()

	var peak atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(e.cl.Controller.Stats().AllocatedBlocks); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()

	plain, traced := newRecorder(nil), newRecorder(log)
	var acc delta
	var plainWall time.Duration
	slice := seconds / tracedSlices
	for k := 0; k < tracedSlices; k++ {
		c, r := e.client, plain
		if k%2 == 1 {
			c, r = tc, traced
		}
		before := scrape(e.cl, c)
		if err := w.drive(ctx, e, c, budget{until: time.Now().Add(slice)}, r); err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		d := since(before, scrape(e.cl, c))
		if k%2 == 1 {
			acc.add(d)
		} else {
			plainWall += d.wall
		}
	}
	close(stop)
	wg.Wait()

	all := newRecorder(nil)
	all.merge(plain)
	all.merge(traced)
	if err := w.finish(ctx, e, all); err != nil {
		return nil, err
	}
	pr, err := runProbes(o.probeN)
	if err != nil {
		return nil, err
	}
	common, extra, table := layerMetrics(layerInputs{
		w: w, e: e, traced: traced, plain: plain, d: acc, plainWall: plainWall,
		spans: log, probes: pr, peak: peak.Load(),
	})
	res := outcome(all)
	res.metrics, res.report = common, extra
	res.lines = append(res.lines, table...)
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, fmt.Errorf("report dir: %w", err)
		}
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.csv.gz", o.workload, o.seed))
		if err := log.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.lines = append(res.lines, "spans written to "+path)
	}
	return res, nil
}
