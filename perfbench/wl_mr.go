package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"jiffy"
	"jiffy/internal/core"
	"jiffy/internal/mr"
)

// mrWordcount runs back-to-back word-count jobs through mr.Run: 2
// splits, 2 reducers, on 2 servers over TCP loopback with 2-long
// chains. Blocks are 1KB and every job's smaller shuffle file holds
// well over a block, so each shuffle file must scale up before the job
// can finish; the benchmark checks every job's scale-ups.
type mrWordcount struct {
	inputs [][]string // per input set: the job's splits
	refs   []map[string]int
	words  []int
	warm   int64
	seq    atomic.Int64
}

const (
	mrReducers = 2
	mrSplits   = 2
	mrBlock    = 1 * core.KB
	mrVocab    = 1000
	mrInputs   = 16 // distinct job inputs, cycled
)

func newMRWordcount(seed int64, scale float64) *mrWordcount {
	r := rand.New(rand.NewSource(seed))
	w := &mrWordcount{warm: int64(scaled(8, scale))}
	// 10-word sentences, 200 words a split. A record is about 11 bytes
	// and the smaller reduce partition gets about 44% of the records, so
	// both shuffle files outgrow their first 1KB block even at the
	// smoke runs' floor of 150 words a split.
	perSplit := max(scaled(200, scale), 150)
	for i := 0; i < mrInputs; i++ {
		splits := make([]string, mrSplits)
		for s := range splits {
			splits[s] = strings.Join(sentences(r, max(1, perSplit/10), 10, mrVocab), "\n")
		}
		ref, total := countWords(splits)
		w.inputs = append(w.inputs, splits)
		w.refs = append(w.refs, ref)
		w.words = append(w.words, total)
	}
	return w
}

func (w *mrWordcount) shape() shape {
	return shape{unitSeries: "unit", spanSeries: []string{"unit"}, writeSeries: "mr.map", unitTailQ: 90, writeTailQ: 90,
		unitName: "job", warm: w.warm, callers: mrSplits}
}

func (w *mrWordcount) setup(ctx context.Context) (*env, error) {
	cfg := baseConfig()
	cfg.ChainLength = 2
	cfg.BlockSize = mrBlock
	e, err := boot(ctx, jiffy.ClusterOptions{Config: cfg, Servers: 2, Transport: "tcp", BlocksPerServer: 256})
	if err != nil {
		return nil, err
	}
	if err := warmUp(ctx, w, e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// mrJob tracks one job's phase boundaries, stamped by the benchmark's
// own map and reduce functions.
type mrJob struct {
	firstMap, firstReduce atomic.Int64 // UnixNano, 0 until seen
	userNs                atomic.Int64
}

func stampFirst(a *atomic.Int64, t time.Time) {
	n := t.UnixNano()
	for {
		cur := a.Load()
		if (cur != 0 && cur <= n) || a.CompareAndSwap(cur, n) {
			return
		}
	}
}

// scaleUps is the controller's scale-up count so far.
func scaleUps(e *env) float64 {
	return scrapeOf(e.cl.Controller.Obs())["jiffy_ctrl_scale_ups_total"]
}

func (w *mrWordcount) drive(ctx context.Context, e *env, c *jiffy.Client, b budget, r *recorder) error {
	ups := scaleUps(e)
	for n := int64(0); !b.done(n); n++ {
		i := w.seq.Add(1)
		in := int(i) % len(w.inputs)
		job := &mrJob{}
		jctx, trace := r.spans.newTrace(ctx)
		cfg := mr.Config{
			JobID:    core.JobID(fmt.Sprintf("mr-%d", i)),
			Inputs:   w.inputs[in],
			Reducers: mrReducers,
			Map: func(split string, emit func(k, v string)) error {
				t0 := time.Now()
				stampFirst(&job.firstMap, t0)
				for _, word := range strings.Fields(split) {
					emit(word, "1")
				}
				d := time.Since(t0)
				job.userNs.Add(int64(d))
				r.spans.record(layerUser, trace, t0, d)
				return nil
			},
			Reduce: func(key string, values []string) (string, error) {
				t0 := time.Now()
				stampFirst(&job.firstReduce, t0)
				out := strconv.Itoa(len(values))
				d := time.Since(t0)
				job.userNs.Add(int64(d))
				r.spans.record(layerUser, trace, t0, d)
				return out, nil
			},
		}
		r.attempted.Add(1)
		start := time.Now()
		res, err := mr.Run(jctx, c, cfg)
		end := time.Now()
		if err != nil {
			r.fail(fmt.Errorf("job %s: %w", cfg.JobID, err))
			continue
		}
		r.units.Add(1)
		r.items.Add(int64(w.words[in]))
		r.observe("unit", end.Sub(start))
		r.spans.record(layerUnit, trace, start, end.Sub(start))
		fm, fr := time.Unix(0, job.firstMap.Load()), time.Unix(0, job.firstReduce.Load())
		for _, p := range []struct {
			name     string
			from, to time.Time
		}{{"mr.setup", start, fm}, {"mr.map", fm, fr}, {"mr.reduce", fr, end}} {
			r.observe(p.name, p.to.Sub(p.from))
			r.spans.record(layerPhase, trace, p.from, p.to.Sub(p.from))
		}
		r.observe("mr.user_fn", time.Duration(job.userNs.Load()))
		checkCounts(r, string(cfg.JobID), w.refs[in], res.Output)
		// The workload exists to exercise shuffle-file growth. The
		// inputs make every shuffle file outgrow its first block; as a
		// floor, the job must have raised the controller's scale-up
		// count (one per honoured growth signal) once per shuffle file.
		// Units never overlap, so the count's growth is the job's.
		last := ups
		if ups = scaleUps(e); ups-last < mrReducers {
			r.violation("job %s: %v scale-ups, want >= %d", cfg.JobID, ups-last, mrReducers)
		}
	}
	return nil
}

// checkCounts compares a job's word counts with the reference.
func checkCounts(r *recorder, job string, ref map[string]int, got map[string]string) {
	if len(got) != len(ref) {
		r.violation("job %s: %d distinct words, want %d", job, len(got), len(ref))
		return
	}
	for word, n := range ref {
		if got[word] != strconv.Itoa(n) {
			r.violation("job %s: count(%s) = %q, want %d", job, word, got[word], n)
			return
		}
	}
}

func (w *mrWordcount) finish(ctx context.Context, e *env, r *recorder) error { return nil }

func (w *mrWordcount) layers(r *recorder, e *env) []Metric {
	var out []Metric
	for _, name := range []string{"mr.setup", "mr.map", "mr.reduce", "mr.user_fn"} {
		m, _ := quantileMetric(name+"_ms", r.get(name), 50, "ms")
		out = append(out, m)
	}
	return out
}

func (w *mrWordcount) storeNs(p probes) float64 { return p.fileAppendNs }
