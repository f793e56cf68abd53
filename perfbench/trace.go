package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/obs"
)

// Layers of a unit's blocking path that the benchmark records spans
// for, outermost first. Spans below the RPC (server handler, chain
// forward, controller, blockstore) come from the registries instead;
// see layerMetrics.
const (
	layerUnit  uint8 = iota // one unit of work: a job, an op, a lifecycle
	layerPhase              // a runtime phase inside a job (mr, dataflow)
	layerUser               // the benchmark's own map and reduce code
	layerCall               // one client-library call the benchmark makes
	layerRPC                // one RPC, recorded by the client's tracer
)

var layerNames = [...]string{"unit", "phase", "user", "call", "rpc"}

// span is one recorded interval, in nanoseconds since the log's base.
type span struct {
	layer      uint8
	trace      uint64
	start, end int64
}

// spanLog keeps a traced run's spans in memory. It doubles as the
// client's span exporter, so RPC spans land next to the benchmark's
// own. When it reaches its limit it stops recording and remembers
// when, so self times are computed only over units that ended before.
type spanLog struct {
	base    time.Time
	limit   int
	mu      sync.Mutex
	spans   []span
	fullAt  int64 // 0 while not full
	dropped int64
	nextID  atomic.Uint64
}

func newSpanLog(limit int) *spanLog {
	return &spanLog{base: time.Now(), limit: limit}
}

// newTrace returns a context carrying a fresh trace identity, so the
// client's RPC spans for the unit carry it too, and the identity.
func (l *spanLog) newTrace(ctx context.Context) (context.Context, uint64) {
	if l == nil {
		return ctx, 0
	}
	id := l.nextID.Add(1)
	return obs.ContextWithSpan(ctx, obs.SpanContext{TraceID: id, SpanID: id}), id
}

// record adds one span. Safe for concurrent use; a nil log ignores it.
func (l *spanLog) record(layer uint8, trace uint64, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	s := int64(start.Sub(l.base))
	l.mu.Lock()
	if len(l.spans) < l.limit {
		l.spans = append(l.spans, span{layer: layer, trace: trace, start: s, end: s + int64(d)})
	} else {
		if l.fullAt == 0 {
			l.fullAt = s
		}
		l.dropped++
	}
	l.mu.Unlock()
}

// counts returns how many spans were kept and how many dropped.
func (l *spanLog) counts() (kept int, dropped int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans), l.dropped
}

// reset forgets every span recorded so far.
func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans, l.fullAt, l.dropped = l.spans[:0], 0, 0
	l.mu.Unlock()
}

// ExportSpan receives the client tracer's RPC spans.
func (l *spanLog) ExportSpan(e obs.SpanEvent) { l.record(layerRPC, e.TraceID, e.Start, e.Duration) }

// selfTimes is the blocking-path time of the measured units, split by
// the innermost layer active at each instant: a moment when an RPC is
// in flight counts as rpc, one with only a client call open counts as
// client, and so on outwards. The layers sum to the units' duration.
type selfTimes struct {
	units                                   int
	unit, bench, runtime, user, client, rpc time.Duration
}

// selfTimes attributes every recorded span to its unit — by trace
// identity, or, when a span carries a foreign identity (a runtime call
// made without the unit's context), by falling inside the unit's
// interval, which is unambiguous only when units do not overlap — and
// sums each layer's self time.
func (l *spanLog) selfTimes() selfTimes {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	fullAt := l.fullAt
	l.mu.Unlock()

	var units []span
	for _, s := range spans {
		if s.layer == layerUnit && (fullAt == 0 || s.end <= fullAt) {
			units = append(units, s)
		}
	}
	sort.Slice(units, func(i, j int) bool { return units[i].start < units[j].start })
	byTrace := make(map[uint64]int, len(units))
	sequential := true
	for i, u := range units {
		byTrace[u.trace] = i
		if i > 0 && u.start < units[i-1].end {
			sequential = false
		}
	}
	// Group the child spans by unit: owner[k] is span k's unit or -1,
	// and first[i]..first[i+1] indexes unit i's spans in byUnit.
	owner := make([]int32, len(spans))
	first := make([]int32, len(units)+1)
	for k, s := range spans {
		owner[k] = -1
		if s.layer == layerUnit {
			continue
		}
		i, ok := byTrace[s.trace]
		if !ok {
			if !sequential {
				continue
			}
			// The last unit starting at or before the span.
			i = sort.Search(len(units), func(k int) bool { return units[k].start > s.start }) - 1
			if i < 0 || s.start >= units[i].end {
				continue
			}
		}
		owner[k] = int32(i)
		first[i+1]++
	}
	for i := range units {
		first[i+1] += first[i]
	}
	byUnit := make([]span, first[len(units)])
	fill := append([]int32(nil), first[:len(units)]...)
	for k, s := range spans {
		if i := owner[k]; i >= 0 {
			byUnit[fill[i]] = s
			fill[i]++
		}
	}

	var st selfTimes
	var iv [][2]int64
	for i, u := range units {
		kids := byUnit[first[i]:first[i+1]]
		// cover is the time within u that spans of layer inner or any
		// layer inside it cover.
		cover := func(inner uint8) int64 {
			iv = iv[:0]
			for _, s := range kids {
				if s.layer >= inner {
					iv = append(iv, [2]int64{max(s.start, u.start), min(s.end, u.end)})
				}
			}
			return unionLen(iv)
		}
		d := cover(layerRPC)
		c := cover(layerCall)
		b := cover(layerUser)
		a := cover(layerPhase)
		st.units++
		st.unit += time.Duration(u.end - u.start)
		st.bench += time.Duration(u.end - u.start - a)
		st.runtime += time.Duration(a - b)
		st.user += time.Duration(b - c)
		st.client += time.Duration(c - d)
		st.rpc += time.Duration(d)
	}
	return st
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes every recorded span as gzip-compressed CSV
// (layer,trace,start_ns,end_ns).
func (l *spanLog) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<16)
	w.WriteString("layer,trace,start_ns,end_ns\n")
	var line []byte
	l.mu.Lock()
	for _, s := range l.spans {
		line = append(line[:0], layerNames[s.layer]...)
		line = append(line, ',')
		line = strconv.AppendUint(line, s.trace, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
