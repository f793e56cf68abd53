package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"jiffy"
	"jiffy/internal/core"
	"jiffy/internal/dataflow"
)

// streamWordcount runs back-to-back two-vertex dataflow.Run jobs on 2
// servers over mem:// without replication. A producer splits sentences
// into words and writes them to a queue channel; a consumer counts the
// words into a long-lived KV, which the benchmark reads back and
// checks.
type streamWordcount struct {
	inputs [][]string
	refs   []map[string]int
	words  []int
	warm   int64
	seq    atomic.Int64
}

const (
	streamVocab  = 500
	streamInputs = 16
	countsPath   = core.Path("results/counts")
)

func newStreamWordcount(seed int64, scale float64) *streamWordcount {
	r := rand.New(rand.NewSource(seed))
	w := &streamWordcount{warm: int64(scaled(8, scale))}
	n := scaled(40, scale) // 10-word sentences
	for i := 0; i < streamInputs; i++ {
		in := sentences(r, n, 10, streamVocab)
		ref, total := countWords(in)
		w.inputs = append(w.inputs, in)
		w.refs = append(w.refs, ref)
		w.words = append(w.words, total)
	}
	return w
}

func (w *streamWordcount) shape() shape {
	return shape{unitSeries: "unit", spanSeries: []string{"unit"}, writeSeries: "dataflow.write", unitTailQ: 90, writeTailQ: 99,
		unitName: "job", warm: w.warm, callers: 2}
}

func (w *streamWordcount) setup(ctx context.Context) (*env, error) {
	e, err := boot(ctx, jiffy.ClusterOptions{Config: baseConfig(), Servers: 2, BlocksPerServer: 256})
	if err != nil {
		return nil, err
	}
	if err := e.client.RegisterJob(ctx, countsPath.Job()); err != nil {
		e.close()
		return nil, fmt.Errorf("register results job: %w", err)
	}
	if _, _, err := e.client.CreatePrefix(ctx, countsPath, nil, core.DSKV, 2, 0); err != nil {
		e.close()
		return nil, fmt.Errorf("create counts KV: %w", err)
	}
	if err := warmUp(ctx, w, e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// streamJob tracks one job's phase boundaries.
type streamJob struct {
	firstFn      atomic.Int64 // UnixNano of the first vertex call
	producerDone atomic.Int64 // UnixNano when the producer wrote its last word
}

func (w *streamWordcount) drive(ctx context.Context, e *env, c *jiffy.Client, b budget, r *recorder) error {
	counts, err := c.OpenKV(ctx, countsPath)
	if err != nil {
		return fmt.Errorf("open counts KV: %w", err)
	}
	for n := int64(0); !b.done(n); n++ {
		i := w.seq.Add(1)
		in := int(i) % len(w.inputs)
		job := &streamJob{}
		var writes, reads series
		g := dataflow.Graph{
			JobID: core.JobID(fmt.Sprintf("st-%d", i)),
			Vertices: []dataflow.Vertex{
				{Name: "split", Outputs: []string{"words"},
					Fn: func(ctx context.Context, _ []*dataflow.Reader, out []*dataflow.Writer) error {
						stampFirst(&job.firstFn, time.Now())
						for _, s := range w.inputs[in] {
							for _, word := range strings.Fields(s) {
								t0 := time.Now()
								if err := out[0].Write([]byte(word)); err != nil {
									return err
								}
								writes.add(time.Since(t0))
							}
						}
						job.producerDone.Store(time.Now().UnixNano())
						return nil
					}},
				{Name: "count", Inputs: []string{"words"},
					Fn: func(ctx context.Context, in []*dataflow.Reader, _ []*dataflow.Writer) error {
						stampFirst(&job.firstFn, time.Now())
						seen := make(map[string]int)
						for {
							t0 := time.Now()
							item, ok, err := in[0].Read(ctx)
							if err != nil {
								return err
							}
							if !ok {
								break
							}
							reads.add(time.Since(t0))
							// Count into the KV word by word. A consumer
							// that only counted in memory kept pace with the
							// producer, and whole runs flipped between a
							// queue drained as it filled and one that stayed
							// full, moving the job time by 30%.
							word := string(item)
							seen[word]++
							if err := counts.Put(ctx, word, []byte(fmt.Sprintf("%d:%d", i, seen[word]))); err != nil {
								return err
							}
						}
						return nil
					}},
			},
		}
		jctx, trace := r.spans.newTrace(ctx)
		r.attempted.Add(1)
		start := time.Now()
		err := dataflow.Run(jctx, c, g)
		end := time.Now()
		if err != nil {
			r.fail(fmt.Errorf("job %s: %w", g.JobID, err))
			continue
		}
		r.units.Add(1)
		r.items.Add(int64(w.words[in]))
		r.observe("unit", end.Sub(start))
		r.spans.record(layerUnit, trace, start, end.Sub(start))
		r.extend("dataflow.write", writes)
		r.extend("dataflow.read", reads)
		ff, pd := time.Unix(0, job.firstFn.Load()), time.Unix(0, job.producerDone.Load())
		for _, p := range []struct {
			name     string
			from, to time.Time
		}{{"dataflow.setup", start, ff}, {"dataflow.stream", ff, pd}, {"dataflow.drain", pd, end}} {
			r.observe(p.name, p.to.Sub(p.from))
			r.spans.record(layerPhase, trace, p.from, p.to.Sub(p.from))
		}
		w.check(ctx, counts, i, in, r)
	}
	return nil
}

// check reads back the counts job i wrote and compares them with the
// reference.
func (w *streamWordcount) check(ctx context.Context, counts *jiffy.KV, i int64, in int, r *recorder) {
	ref := w.refs[in]
	keys := make([]string, 0, len(ref))
	for word := range ref {
		keys = append(keys, word)
	}
	vals, err := counts.MultiGet(ctx, keys)
	if err != nil {
		r.violation("job st-%d: read back counts: %v", i, err)
		return
	}
	for k, word := range keys {
		if want := fmt.Sprintf("%d:%d", i, ref[word]); string(vals[k]) != want {
			r.violation("job st-%d: count(%s) = %q, want %q", i, word, vals[k], want)
			return
		}
	}
}

func (w *streamWordcount) finish(ctx context.Context, e *env, r *recorder) error { return nil }

func (w *streamWordcount) layers(r *recorder, e *env) []Metric {
	var out []Metric
	for _, q := range []struct {
		metric, series string
		q              float64
		unit           string
	}{
		{"dataflow.setup_ms", "dataflow.setup", 50, "ms"},
		{"dataflow.write_us_p50", "dataflow.write", 50, "us"},
		{"dataflow.read_us_p50", "dataflow.read", 50, "us"},
		{"dataflow.read_us_p99", "dataflow.read", 99, "us"},
		{"dataflow.drain_ms", "dataflow.drain", 50, "ms"},
	} {
		m, _ := quantileMetric(q.metric, r.get(q.series), q.q, q.unit)
		out = append(out, m)
	}
	return out
}

// storeNs: every word is an enqueue, a dequeue and a KV put.
func (w *streamWordcount) storeNs(p probes) float64 { return (p.queueEnqDeqNs + p.kvPutNs) / 3 }
