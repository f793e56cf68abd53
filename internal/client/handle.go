package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

// handle is the shared machinery under every data-structure handle:
// the cached partition map, staleness-driven refresh, and data-plane
// dispatch.
type handle struct {
	c    *Client
	path core.Path

	mu   sync.RWMutex
	pmap ds.PartitionMap
}

// newHandle opens a prefix and validates its data-structure type.
func (c *Client) newHandle(ctx context.Context, path core.Path, want core.DSType) (*handle, error) {
	m, _, err := c.open(ctx, path)
	if err != nil {
		return nil, err
	}
	if m.Type != want {
		return nil, fmt.Errorf("client: prefix %q holds a %v, not a %v: %w",
			path, m.Type, want, core.ErrWrongType)
	}
	return &handle{c: c, path: path, pmap: m}, nil
}

// snapshot returns the cached partition map.
func (h *handle) snapshot() ds.PartitionMap {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.pmap
}

// refresh re-fetches the partition map from the controller. It only
// installs maps with a newer epoch, so concurrent refreshes can't
// regress the cache.
func (h *handle) refresh(ctx context.Context) error {
	if obs.On() {
		h.c.mapRefreshes.Inc()
	}
	m, _, err := h.c.open(ctx, h.path)
	if err != nil {
		return err
	}
	h.install(m)
	return nil
}

// install adopts a map if it is newer than the cached one.
func (h *handle) install(m ds.PartitionMap) {
	h.mu.Lock()
	if m.Epoch >= h.pmap.Epoch {
		h.pmap = m
	}
	h.mu.Unlock()
}

// requestScale asks the controller to grow the structure at block and
// installs the refreshed map from the response.
func (h *handle) requestScale(ctx context.Context, block core.BlockID) error {
	m, err := h.c.requestScale(ctx, h.path, block)
	if err != nil {
		return err
	}
	h.install(m)
	return nil
}

// do executes one data-plane op against a block. Connection-level
// failures evict the pooled session so the next attempt re-dials.
// Every call feeds the per-server health tracker (latency EWMA +
// windowed quantile — allocation-free, so the PR 9 small-op hot path
// keeps its ceilings), and when a breaker policy is installed an open
// breaker fails the call fast with a typed degraded error instead of
// queueing behind a gray-failed server.
func (h *handle) do(ctx context.Context, info core.BlockInfo, op core.OpType, args [][]byte) ([][]byte, error) {
	if h.c.breakerOn {
		if retryAfter, ok := h.c.health.allow(info.Server); !ok {
			return nil, degradedErr(info.Server, retryAfter)
		}
	}
	conn, err := h.c.dataConn(info.Server)
	if err != nil {
		// An unreachable server is a connection failure like any other:
		// classify it so retries avoid the server and reads fall back
		// along the replica chain. It also strikes the server's breaker.
		h.c.health.record(info.Server, 0, true)
		return nil, fmt.Errorf("client: dial %s: %v: %w", info.Server, err, core.ErrClosed)
	}
	// Encode into a pooled buffer: the call stages the frame into the
	// session's write buffer before blocking, so the request bytes can be
	// recycled right after. Requests carrying large bodies (writes, puts)
	// skip the encode copy entirely: the header and length prefixes go
	// into the pooled buffer and the caller's arg slices ride to the
	// socket as scatter-gather segments. Small replies come back in
	// borrowed memory, returned to the pool once the values are decoded
	// (and copied) out.
	start := time.Now()
	var body []byte
	var vec [][]byte
	buf := wire.GetBuf()
	if argsBytes(args) >= vecRequestThreshold {
		vec, buf = ds.AppendRequestVec(buf, op, info.ID, args)
	} else {
		buf = ds.AppendRequest(buf, op, info.ID, args)
		body = buf
	}
	payload, pooled, err := conn.CallRaw(ctx, proto.MethodDataOp, body, vec)
	wire.PutBuf(buf)
	// Session failures strike the server's health; anything the server
	// actually answered (including op-level errors) is a latency sample.
	// Caller-context expiry is neither: it says nothing about the server.
	if cerr := ctxErr(err); cerr == nil {
		h.c.health.record(info.Server, time.Since(start), err != nil && isConnErr(err))
	}
	if err != nil {
		if isConnErr(err) {
			h.c.dropData(info.Server)
			return nil, err
		}
		if errors.Is(err, core.ErrRedirect) {
			if obs.On() {
				h.c.rpcm.Redirects.Inc()
			}
			// The payload names the block to retry against. ParseRedirect
			// copies both fields out, so the borrowed buffer can be
			// recycled right after.
			next, perr := ds.ParseRedirect(payload)
			if pooled {
				wire.PutBuf(payload)
			}
			if perr != nil {
				return nil, perr
			}
			return nil, &redirect{next: next}
		}
		if pooled {
			wire.PutBuf(payload)
		}
		return nil, err
	}
	vals, derr := ds.DecodeVals(payload)
	if pooled {
		// Vals alias the borrowed buffer: copy them out (exact-size
		// allocations) before recycling it.
		for i, v := range vals {
			vals[i] = append([]byte(nil), v...)
		}
		wire.PutBuf(payload)
	}
	return vals, derr
}

// vecRequestThreshold is the total argument size above which do()
// switches to the scatter-gather request encoding. Below it, one
// contiguous copy into a pooled buffer is cheaper than the extra
// segment bookkeeping.
const vecRequestThreshold = 4 * core.KB

// argsBytes sums the argument payload sizes of one op.
func argsBytes(args [][]byte) int {
	n := 0
	for _, a := range args {
		n += len(a)
	}
	return n
}

// doBatch ships a group of ops bound for one server as a single
// MethodDataOpBatch frame and returns the per-op results. A returned
// error means the whole call failed (encode, connection, or decode);
// op-level failures live inside the results. Connection-level failures
// evict the pooled session like the single-op path.
func (h *handle) doBatch(ctx context.Context, server string, ops []ds.BatchOp) ([]ds.BatchResult, error) {
	if obs.On() {
		h.c.batchSizes.Observe(int64(len(ops)))
	}
	if h.c.breakerOn {
		if retryAfter, ok := h.c.health.allow(server); !ok {
			return nil, degradedErr(server, retryAfter)
		}
	}
	conn, err := h.c.dataConn(server)
	if err != nil {
		h.c.health.record(server, 0, true)
		return nil, fmt.Errorf("client: dial %s: %v: %w", server, err, core.ErrClosed)
	}
	req := ds.AppendBatchRequest(wire.GetBuf(), ops)
	start := time.Now()
	payload, pooled, err := conn.CallRaw(ctx, proto.MethodDataOpBatch, req, nil)
	wire.PutBuf(req)
	if pooled {
		// The decoded results alias the reply: copy it out of the
		// borrowed buffer once, up front.
		owned := append([]byte(nil), payload...)
		wire.PutBuf(payload)
		payload = owned
	}
	if cerr := ctxErr(err); cerr == nil {
		h.c.health.record(server, time.Since(start), err != nil && isConnErr(err))
	}
	if err != nil {
		if isConnErr(err) {
			h.c.dropData(server)
		}
		return nil, err
	}
	return ds.DecodeBatchResults(payload)
}

// redirect is the client-side form of a queue head/tail redirection.
type redirect struct{ next core.BlockInfo }

func (r *redirect) Error() string { return core.ErrRedirect.Error() }
func (r *redirect) Unwrap() error { return core.ErrRedirect }

// isConnErr reports whether err means the session (not the operation)
// failed: the connection died mid-call or the call timed out. Both are
// retryable after the pooled session is evicted and re-dialed — unless
// the caller's context is what expired, which ctxErr distinguishes.
func isConnErr(err error) bool {
	return errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout)
}

// ctxErr extracts the caller's context error from err, if any. A call
// that failed because the caller's deadline expired or the caller
// canceled must not be retried: the rpc layer wraps those failures so
// both the typed sentinel and the context error are visible.
func ctxErr(err error) error {
	if errors.Is(err, context.Canceled) {
		return context.Canceled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return nil
}

// verdict is a data type's ruling on an error only it knows how to
// handle (the own step of handle.retry).
type verdict uint8

const (
	shared     verdict = iota // not this type's error: the shared arms decide
	retryNow                  // handled (a redirect was followed): retry at once
	retryLater                // handled (the structure grew): back off, then retry
	final                     // return the error own returned
)

// retry drives one single-op data call through the recovery protocol
// every data type shares (§3.3, §5). try routes the op under the
// cached map, skipping the servers in avoid where the type can (they
// failed earlier in this call), sends it, and reports the target it
// picked. resync re-learns the routing state: handle.refresh, or
// Queue.reseed for the cached ends. own, when non-nil, rules first on
// the errors only its type has. The error → action table (DESIGN.md
// §11):
//
//	caller ctx canceled or expired  return it; no further attempt
//	ErrQuotaExceeded                wait the retry-after hint; past ThrottleLimit return it (never spends Limit)
//	ErrStaleEpoch, route miss       resync, back off
//	ErrServerDegraded               server already avoided: return it; else avoid it, resync, back off
//	connection failure              avoid the server, resync, back off
//	anything else                   return it
//
// ctx bounds the whole loop: once it ends, the loop stops instead of
// burning the remaining budget against a caller that has gone away.
// Every retried arm records its error as the cause the
// retries-exhausted error wraps once Limit attempts are spent.
func (h *handle) retry(ctx context.Context, op core.OpType, key string,
	try func(avoid map[string]bool) (core.BlockInfo, [][]byte, error),
	resync func(context.Context) error,
	own func(ctx context.Context, err error, at core.BlockInfo) (verdict, error),
) ([][]byte, error) {
	var cause error
	var avoid map[string]bool
	throttles := 0
	for attempt := 0; attempt < h.c.policy.Limit; {
		at, res, err := try(avoid)
		if err == nil {
			return res, nil
		}
		if ctxErr(err) != nil {
			return nil, err
		}
		v, oerr := shared, error(nil)
		if own != nil {
			v, oerr = own(ctx, err, at)
		}
		switch {
		case v == final:
			return nil, oerr
		case v != shared:
			// own handled it.
		case errors.Is(err, core.ErrQuotaExceeded):
			// Admission refusal: honor the retry-after hint a bounded
			// number of times, then surface the typed error as
			// backpressure; never silently swallow a throttle.
			throttles++
			if throttles > h.c.policy.ThrottleLimit {
				return nil, err
			}
			if werr := h.waitThrottle(ctx, throttles-1, err); werr != nil {
				return nil, werr
			}
			continue
		case errors.Is(err, core.ErrStaleEpoch):
			if rerr := resync(ctx); rerr != nil {
				return nil, rerr
			}
			v = retryLater
		case errors.Is(err, core.ErrServerDegraded) && avoid[at.Server]:
			// The breaker is still open after a resync (or the server
			// already failed this call): surface the typed error with
			// its retry-after hint instead of burning the budget.
			return nil, err
		case errors.Is(err, core.ErrServerDegraded) || isConnErr(err):
			// An open breaker or a dead session (evicted by do, so the
			// next attempt re-dials): reads fall back along the chain,
			// and the fresh map may show the block repaired or moved.
			if avoid == nil {
				avoid = make(map[string]bool)
			}
			avoid[at.Server] = true
			if rerr := resync(ctx); rerr != nil && !isConnErr(rerr) {
				return nil, rerr
			}
			v = retryLater
		default:
			return nil, err
		}
		cause = err
		if v == retryLater {
			if berr := h.backoff(ctx, attempt); berr != nil {
				return nil, berr
			}
		}
		attempt++
	}
	name := fmt.Sprintf("%v %v", h.snapshot().Type, op)
	if key != "" {
		name += fmt.Sprintf(" %q", key)
	}
	return nil, errRetriesExhausted(name, cause)
}

// grow asks for a scale-up at block the way every recovery path does:
// a cluster without free capacity leaves the structure as it is, and
// the retry that follows finds out.
func (h *handle) grow(ctx context.Context, block core.BlockID) error {
	if err := h.requestScale(ctx, block); err != nil && !errors.Is(err, core.ErrNoCapacity) {
		return err
	}
	return nil
}

// scaleOnFull is the own step of KV and file writes: a full block asks
// the controller for a scale-up (the proactive server-side signal
// usually beats us to it), which installs the grown map.
func (h *handle) scaleOnFull(ctx context.Context, err error, at core.BlockInfo) (verdict, error) {
	if !errors.Is(err, core.ErrBlockFull) {
		return shared, nil
	}
	if gerr := h.grow(ctx, at.ID); gerr != nil {
		return final, gerr
	}
	return retryLater, nil
}

// backoffDelay computes the retry delay for a zero-based attempt:
// linear growth capped at limit, so a full retry budget stays bounded.
func backoffDelay(attempt int, limit time.Duration) time.Duration {
	d := time.Duration(attempt+1) * 200 * time.Microsecond
	if limit <= 0 {
		limit = 5 * time.Millisecond
	}
	if d > limit {
		d = limit
	}
	return d
}

// backoff sleeps briefly between retries (attempt is zero-based),
// counts the retry, and aborts early when ctx ends.
func (h *handle) backoff(ctx context.Context, attempt int) error {
	if obs.On() {
		h.c.rpcm.Retries.Inc()
	}
	return sleepCtx(ctx, backoffDelay(attempt, h.c.policy.MaxBackoff))
}

// waitThrottle honors a quota refusal's backpressure: sleep the
// server's retry-after hint — capped by MaxThrottleWait, falling back
// to the normal backoff step when the refusal carries no hint — and
// abort early when ctx ends.
func (h *handle) waitThrottle(ctx context.Context, attempt int, err error) error {
	if obs.On() {
		h.c.throttleWaits.Inc()
	}
	d := core.RetryAfterOf(err)
	if d <= 0 {
		d = backoffDelay(attempt, h.c.policy.MaxBackoff)
	}
	if lim := h.c.policy.MaxThrottleWait; lim > 0 && d > lim {
		d = lim
	}
	return sleepCtx(ctx, d)
}

// errRetriesExhausted wraps the final error after the retry budget is
// spent.
func errRetriesExhausted(op string, err error) error {
	return fmt.Errorf("client: %s: retries exhausted: %w", op, err)
}

// lostErr is the fail-fast error for a partition entry the controller
// marked Lost: every replica died with no flushed copy, so no amount
// of retrying will bring the data back.
func lostErr(e ds.PartitionEntry) error {
	return fmt.Errorf("client: block %d: %w", e.Info.ID, core.ErrBlockLost)
}
