package client

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
)

// Batched multi-op API. Each call groups operations by destination
// block/server, ships each group as one MethodDataOpBatch frame, and
// drives the whole set to completion with the same recovery rules as
// the single-op path: stale epochs refresh the partition map and
// regroup (so a batch spanning a repartition-in-flight block is split
// and retried against the new map), full blocks request a scale-up,
// dead sessions are evicted and avoided. Failures are attributed per
// op via MultiError — a batch never reports silent partial success.

// MultiError carries the per-op outcomes of a batched call: Errs[i] is
// nil when op i succeeded. It unwraps to the underlying sentinel
// errors, so errors.Is(err, core.ErrNotFound) works on the aggregate.
type MultiError struct {
	Errs []error
}

// Error summarizes the failure count and the first failing op.
func (e *MultiError) Error() string {
	failed, total := 0, len(e.Errs)
	var first error
	firstIdx := -1
	for i, err := range e.Errs {
		if err != nil {
			failed++
			if first == nil {
				first, firstIdx = err, i
			}
		}
	}
	return fmt.Sprintf("client: %d/%d batched ops failed (op %d: %v)",
		failed, total, firstIdx, first)
}

// Unwrap exposes the non-nil per-op errors to errors.Is/As.
func (e *MultiError) Unwrap() []error {
	out := make([]error, 0, len(e.Errs))
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// multiErr folds a per-op error vector into nil (all succeeded) or a
// *MultiError.
func multiErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return &MultiError{Errs: errs}
		}
	}
	return nil
}

// KVPair is one key-value pair in a MultiPut.
type KVPair struct {
	Key   string
	Value []byte
}

// MultiPut stores many pairs in one round trip per destination server.
// On partial failure it returns a *MultiError indexed like pairs.
func (k *KV) MultiPut(ctx context.Context, pairs []KVPair) error {
	keys := make([]string, len(pairs))
	args := make([][][]byte, len(pairs))
	for i, p := range pairs {
		keys[i] = p.Key
		args[i] = [][]byte{[]byte(p.Key), p.Value}
	}
	_, err := k.execBatch(ctx, core.OpPut, keys, args)
	return err
}

// MultiGet fetches many keys in one round trip per destination server.
// The returned values align with keys; a key whose lookup failed (e.g.
// ErrNotFound) has a nil value and its error recorded in the returned
// *MultiError.
func (k *KV) MultiGet(ctx context.Context, keys []string) ([][]byte, error) {
	args := make([][][]byte, len(keys))
	for i, key := range keys {
		args[i] = [][]byte{[]byte(key)}
	}
	res, err := k.execBatch(ctx, core.OpGet, keys, args)
	vals := make([][]byte, len(keys))
	for i, r := range res {
		if len(r) > 0 {
			vals[i] = r[0]
		}
	}
	return vals, err
}

// execBatch drives a set of same-op keyed operations to completion.
// Results align with keys; the error is nil or a *MultiError.
func (k *KV) execBatch(ctx context.Context, op core.OpType, keys []string, args [][][]byte) ([][][]byte, error) {
	n := len(keys)
	results := make([][][]byte, n)
	errs := make([]error, n)
	if n == 0 {
		return results, nil
	}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	var avoid map[string]bool

	for attempt := 0; attempt < k.h.c.policy.Limit && len(pending) > 0; attempt++ {
		// Group the pending ops by destination server under the current
		// map. Ops whose slot has no owner yet force a refresh.
		type group struct {
			idxs []int
			ops  []ds.BatchOp
		}
		groups := make(map[string]*group)
		var next []int
		needRefresh := false
		for _, i := range pending {
			info, rerr := k.route(keys[i], op, avoid)
			if errors.Is(rerr, core.ErrStaleEpoch) {
				errs[i] = rerr
				next = append(next, i)
				needRefresh = true
				continue
			}
			if rerr != nil {
				// Lost block: fail this op permanently, no retry.
				errs[i] = rerr
				continue
			}
			g := groups[info.Server]
			if g == nil {
				g = &group{}
				groups[info.Server] = g
			}
			g.idxs = append(g.idxs, i)
			g.ops = append(g.ops, ds.BatchOp{Op: op, Block: info.ID, Args: args[i]})
		}

		for server, g := range groups {
			rs, cerr := k.h.doBatch(ctx, server, g.ops)
			if cerr != nil {
				// The whole group's call failed: attribute the error to
				// every op in it and retry them all — none of them got a
				// definitive answer. A caller-context failure is final.
				for _, i := range g.idxs {
					errs[i] = cerr
				}
				if ctxErr(cerr) != nil {
					return results, multiErr(errs)
				}
				next = append(next, g.idxs...)
				if isConnErr(cerr) {
					if avoid == nil {
						avoid = make(map[string]bool)
					}
					avoid[server] = true
				}
				needRefresh = true
				continue
			}
			if len(rs) != len(g.idxs) {
				return results, fmt.Errorf("client: batch: %d results for %d ops", len(rs), len(g.idxs))
			}
			for j, r := range rs {
				i := g.idxs[j]
				oerr := r.Err()
				switch {
				case oerr == nil:
					vals, derr := r.Vals()
					if derr != nil {
						errs[i] = derr
						continue
					}
					results[i] = vals
					errs[i] = nil
				case errors.Is(oerr, core.ErrStaleEpoch):
					// This op's block moved (repartition in flight): the
					// refresh below regroups it against the new map.
					errs[i] = oerr
					next = append(next, i)
					needRefresh = true
				case errors.Is(oerr, core.ErrBlockFull):
					errs[i] = oerr
					if serr := k.h.grow(ctx, g.ops[j].Block); serr != nil {
						errs[i] = serr
						continue
					}
					next = append(next, i)
				default:
					// Terminal per-op outcome (ErrNotFound, ErrTooLarge, ...).
					errs[i] = oerr
				}
			}
		}

		pending = next
		if len(pending) == 0 {
			break
		}
		if needRefresh {
			if obs.On() {
				k.h.c.staleRegroups.Inc()
			}
			if rerr := k.h.refresh(ctx); rerr != nil && !isConnErr(rerr) {
				for _, i := range pending {
					errs[i] = rerr
				}
				return results, multiErr(errs)
			}
		}
		if berr := k.h.backoff(ctx, attempt); berr != nil {
			for _, i := range pending {
				errs[i] = berr
			}
			return results, multiErr(errs)
		}
	}

	for _, i := range pending {
		errs[i] = errRetriesExhausted(fmt.Sprintf("kv batch %v %q", op, keys[i]), errs[i])
	}
	return results, multiErr(errs)
}

// AppendBatch appends many records to the file's tail chunk in one
// round trip, returning the absolute offset each record landed at
// (aligned with records). Like AppendRecord, records never straddle
// chunks. When the tail fills mid-batch the unplaced suffix requests a
// scale-up and retries against the new tail; on partial failure the
// error is a *MultiError indexed like records.
func (f *File) AppendBatch(ctx context.Context, records [][]byte) ([]int, error) {
	cs := f.chunkSize()
	if cs <= 0 {
		return nil, fmt.Errorf("client: file has no chunk size")
	}
	n := len(records)
	offs := make([]int, n)
	errs := make([]error, n)
	if n == 0 {
		return offs, nil
	}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}

	for attempt := 0; attempt < f.h.c.policy.Limit && len(pending) > 0; attempt++ {
		m := f.h.snapshot()
		tail, ok := m.Tail()
		if !ok {
			err := fmt.Errorf("client: file has no chunks: %w", core.ErrNotFound)
			for _, i := range pending {
				errs[i] = err
			}
			return offs, multiErr(errs)
		}
		ops := make([]ds.BatchOp, len(pending))
		for j, i := range pending {
			ops[j] = ds.BatchOp{Op: core.OpFileAppend, Block: tail.Info.ID, Args: [][]byte{records[i]}}
		}
		rs, cerr := f.h.doBatch(ctx, tail.Info.Server, ops)
		if cerr != nil {
			for _, i := range pending {
				errs[i] = cerr
			}
			if ctxErr(cerr) != nil {
				return offs, multiErr(errs)
			}
			if !isConnErr(cerr) && !errors.Is(cerr, core.ErrStaleEpoch) {
				return offs, multiErr(errs)
			}
			if rerr := f.h.refresh(ctx); rerr != nil && !isConnErr(rerr) {
				return offs, multiErr(errs)
			}
			if berr := f.h.backoff(ctx, attempt); berr != nil {
				return offs, multiErr(errs)
			}
			continue
		}
		var next []int
		needScale := false
		needRefresh := false
		for j, r := range rs {
			i := pending[j]
			oerr := r.Err()
			switch {
			case oerr == nil:
				vals, derr := r.Vals()
				if derr != nil {
					errs[i] = derr
					continue
				}
				off, perr := ds.ParseU64(vals[0])
				if perr != nil {
					errs[i] = perr
					continue
				}
				offs[i] = tail.Chunk*cs + int(off)
				errs[i] = nil
			case errors.Is(oerr, core.ErrBlockFull):
				errs[i] = oerr
				next = append(next, i)
				needScale = true
			case errors.Is(oerr, core.ErrStaleEpoch):
				errs[i] = oerr
				next = append(next, i)
				needRefresh = true
			default:
				errs[i] = oerr
			}
		}
		if needScale {
			if serr := f.h.grow(ctx, tail.Info.ID); serr != nil {
				for _, i := range next {
					errs[i] = serr
				}
				return offs, multiErr(errs)
			}
		} else if needRefresh {
			if obs.On() {
				f.h.c.staleRegroups.Inc()
			}
			if rerr := f.h.refresh(ctx); rerr != nil && !isConnErr(rerr) {
				for _, i := range next {
					errs[i] = rerr
				}
				return offs, multiErr(errs)
			}
		}
		pending = next
		if len(pending) > 0 {
			if berr := f.h.backoff(ctx, attempt); berr != nil {
				for _, i := range pending {
					errs[i] = berr
				}
				return offs, multiErr(errs)
			}
		}
	}

	for _, i := range pending {
		errs[i] = errRetriesExhausted("file append batch", errs[i])
	}
	return offs, multiErr(errs)
}

// EnqueueBatch appends many items to the queue tail in one round trip.
// Sealed-segment redirects advance the cached tail and retry the
// unplaced suffix, mirroring Enqueue; on partial failure the error is
// a *MultiError indexed like items.
func (q *Queue) EnqueueBatch(ctx context.Context, items [][]byte) error {
	n := len(items)
	errs := make([]error, n)
	if n == 0 {
		return nil
	}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}

	for attempt := 0; attempt < q.h.c.policy.Limit && len(pending) > 0; attempt++ {
		_, tail, err := q.ends()
		if err != nil {
			for _, i := range pending {
				errs[i] = err
			}
			return multiErr(errs)
		}
		ops := make([]ds.BatchOp, len(pending))
		for j, i := range pending {
			ops[j] = ds.BatchOp{Op: core.OpEnqueue, Block: tail.ID, Args: [][]byte{items[i]}}
		}
		rs, cerr := q.h.doBatch(ctx, tail.Server, ops)
		if cerr != nil {
			for _, i := range pending {
				errs[i] = cerr
			}
			if ctxErr(cerr) != nil {
				return multiErr(errs)
			}
			if !isConnErr(cerr) && !errors.Is(cerr, core.ErrStaleEpoch) {
				return multiErr(errs)
			}
			if rerr := q.reseed(ctx); rerr != nil && !isConnErr(rerr) {
				return multiErr(errs)
			}
			if berr := q.h.backoff(ctx, attempt); berr != nil {
				return multiErr(errs)
			}
			continue
		}
		var next []int
		needScale := false
		needReseed := false
		for j, r := range rs {
			i := pending[j]
			oerr := r.Err()
			switch {
			case oerr == nil:
				errs[i] = nil
			case errors.Is(oerr, core.ErrRedirect):
				// The tail sealed mid-batch; follow the link for the
				// unplaced suffix.
				errs[i] = oerr
				next = append(next, i)
				if nextTail, perr := ds.ParseRedirect(r.Blob); perr == nil {
					q.mu.Lock()
					q.tail = nextTail
					q.mu.Unlock()
				} else {
					needReseed = true
				}
			case errors.Is(oerr, core.ErrBlockFull):
				errs[i] = oerr
				next = append(next, i)
				needScale = true
			case errors.Is(oerr, core.ErrStaleEpoch):
				errs[i] = oerr
				next = append(next, i)
				needReseed = true
			default:
				errs[i] = oerr
			}
		}
		if needScale {
			if gerr := q.growTail(ctx, tail.ID); gerr != nil {
				for _, i := range next {
					errs[i] = gerr
				}
				return multiErr(errs)
			}
		} else if needReseed {
			if obs.On() {
				q.h.c.staleRegroups.Inc()
			}
			if rerr := q.reseed(ctx); rerr != nil && !isConnErr(rerr) {
				for _, i := range next {
					errs[i] = rerr
				}
				return multiErr(errs)
			}
		}
		pending = next
		if len(pending) > 0 {
			if berr := q.h.backoff(ctx, attempt); berr != nil {
				for _, i := range pending {
					errs[i] = berr
				}
				return multiErr(errs)
			}
		}
	}

	for _, i := range pending {
		errs[i] = errRetriesExhausted("enqueue batch", errs[i])
	}
	return multiErr(errs)
}
