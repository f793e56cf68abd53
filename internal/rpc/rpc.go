// Package rpc provides the request/response layer on top of the framed
// wire protocol: multiplexed in-flight calls with sequence matching on
// the client, per-connection dispatch with bounded concurrency on the
// server, and server-push frames for the notification interface.
//
// This mirrors the role of the paper's optimized Thrift layer (§4.2.2):
// asynchronous framed IO multiplexing many sessions so requests across
// sessions proceed non-blockingly.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/obs"
	"jiffy/internal/proto"
	"jiffy/internal/wire"
)

// SessionError reports that an RPC session died with calls in flight:
// the read pump hit a connection error (peer crash, reset, network
// partition) and every pending request was failed fast rather than
// left hanging. It unwraps to core.ErrClosed so existing errors.Is
// checks keep working; Cause carries the underlying transport error.
type SessionError struct {
	// Cause is the read-pump error that killed the session.
	Cause error
}

// Error implements error.
func (e *SessionError) Error() string {
	return fmt.Sprintf("rpc: session closed: %v", e.Cause)
}

// Unwrap maps the session failure onto the ErrClosed sentinel.
func (e *SessionError) Unwrap() error { return core.ErrClosed }

// pendingShards divides the in-flight call table; must be a power of
// two. Sequence numbers are assigned atomically and map onto shards
// round-robin, so concurrent callers contend on a shard mutex held for
// one map operation instead of a client-wide lock held across seq
// assignment, registration, and completion.
const pendingShards = 16

// pendingShard is one stripe of the in-flight call table.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]*waiter
	// pad out to a cache line so shards don't false-share.
	_ [40]byte
}

// callResult is what the read pump (or failAll, or the watchdog) hands
// a waiter. At most one result is ever delivered per registration: the
// sender first removes the waiter from the pending table, so the
// 1-buffered channel never blocks and never carries a stale value
// across reuses.
type callResult struct {
	payload []byte
	code    core.ErrorCode
	// pooled marks payload as wire.GetBuf memory now owned by the
	// receiver.
	pooled bool
	// err is the session failure injected by failAll, or the timeout
	// delivered by the watchdog; nil otherwise.
	err error
}

// waiter is the pooled per-call state: a reusable 1-buffered response
// channel plus the watchdog's view of the call. Waiters recycle through
// waiterPool, so the steady-state cost of a call is zero allocations
// for channel and pending-table plumbing.
type waiter struct {
	ch chan callResult
	// method and timeout label the watchdog's timeout error; expiry,
	// when non-zero, is the watchdog tick at which the call times out.
	// All three are written before registration and read by the
	// watchdog under the shard lock.
	method  uint16
	timeout time.Duration
	expiry  uint64
}

var waiterPool = sync.Pool{
	New: func() interface{} { return &waiter{ch: make(chan callResult, 1)} },
}

// Client is one logical session with an RPC server. It is safe for
// concurrent use: calls from many goroutines are multiplexed over the
// session's connections and matched to responses by sequence number.
// A session normally owns one connection; DialShards builds one that
// owns several (each with its own read pump and write mutex),
// partitioning the sequence space across them so concurrent callers
// stop contending on a single write lock and read pump. Calls remain
// synchronous request/response, so operations issued by one goroutine
// keep their program order regardless of which connection carries
// them; there is no cross-goroutine ordering either way.
type Client struct {
	conns []*wire.Conn

	nextSeq atomic.Uint64
	pending [pendingShards]pendingShard
	// closed flips once, before failAll sweeps the pending table; a
	// caller that registers and then observes closed un-registers itself
	// (or collects failAll's result), so no waiter is ever stranded.
	closed atomic.Bool

	// timeout bounds every call whose context carries no deadline; zero
	// disables the bound.
	timeout atomic.Int64

	// The watchdog is the session's one timeout mechanism: tick counts
	// its sweeps, and a timed call records the tick at which it expires
	// instead of arming a timer. watchdogOnce starts the sweeper lazily
	// the first time a call needs it and fixes its period, so sessions
	// without a timeout never run the goroutine.
	tick         atomic.Uint64
	watchdogOnce sync.Once
	sweep        time.Duration

	// downOnce closes readerDone exactly once — with a sharded session
	// several read pumps race to report the session's death.
	downOnce sync.Once

	mu sync.Mutex
	// sessionErr records why the session died; returned to callers whose
	// pending requests were failed by failAll. Guarded by mu.
	sessionErr error

	// onPush, if set, receives push frames (subscription notifications).
	onPush func(subID uint64, payload []byte)

	// instr carries the optional telemetry attachment (per-method
	// metrics, tracer, peer label). Atomic so instrumentation can be
	// installed by dial wrappers without racing in-flight calls.
	instr atomic.Pointer[instrumentation]

	readerDone chan struct{}
}

// instrumentation bundles a session's telemetry sinks.
type instrumentation struct {
	metrics *obs.RPCMetrics
	tracer  *obs.Tracer
	peer    string
}

// DialFunc customizes how clients reach servers; the default uses
// wire.Dial (TCP or mem://).
type DialFunc func(addr string) (*Client, error)

// Dial connects to an RPC server at addr.
func Dial(addr string) (*Client, error) {
	return DialShards(addr, 1)
}

// DialShards connects a sharded session to addr: n independent framed
// connections bound into one logical Client (n < 1 is treated as 1).
// See DialShardsNet for custom transports.
func DialShards(addr string, n int) (*Client, error) {
	return DialShardsNet(addr, n, wire.Dial)
}

// DialShardsNet is DialShards over a caller-supplied net-level dial
// (fault injectors, custom transports). Connections dialed before a
// failure are closed on the way out.
func DialShardsNet(addr string, n int, dialNet func(string) (net.Conn, error)) (*Client, error) {
	if n < 1 {
		n = 1
	}
	conns := make([]*wire.Conn, 0, n)
	for i := 0; i < n; i++ {
		nc, err := dialNet(addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, wire.NewConn(nc))
	}
	return NewClientConns(conns), nil
}

// NewClient builds a client over an established framed connection and
// starts its read pump.
func NewClient(conn *wire.Conn) *Client {
	return NewClientConns([]*wire.Conn{conn})
}

// NewClientConns builds one logical session over conns and starts a
// read pump per connection. All pumps share the pending table and the
// push hook; the death of any connection fails the whole session.
func NewClientConns(conns []*wire.Conn) *Client {
	c := &Client{
		conns:      conns,
		readerDone: make(chan struct{}),
	}
	for i := range c.pending {
		c.pending[i].m = make(map[uint64]*waiter)
	}
	for _, cn := range conns {
		go c.readLoop(cn)
	}
	return c
}

// SetTimeout installs the default per-call deadline; zero disables it.
// Calls already in flight are unaffected. Set it before the first call:
// the watchdog's sweep period is derived from the timeout in force when
// the first timed call starts.
func (c *Client) SetTimeout(d time.Duration) {
	c.timeout.Store(int64(d))
}

// IsClosed reports whether the session has terminated (read pump gone).
func (c *Client) IsClosed() bool {
	select {
	case <-c.readerDone:
		return true
	default:
		return false
	}
}

// Done is closed when the session terminates; connection caches watch
// it to evict dead sessions.
func (c *Client) Done() <-chan struct{} { return c.readerDone }

// SetInstrumentation attaches per-method metrics and a tracer to the
// session; peer labels outbound span events (usually the dialed
// address). Any argument may be nil.
func (c *Client) SetInstrumentation(m *obs.RPCMetrics, tr *obs.Tracer, peer string) {
	c.instr.Store(&instrumentation{metrics: m, tracer: tr, peer: peer})
}

// WithInstrumentation wraps a dial function so every session it
// produces reports into m and tr (either may be nil).
func WithInstrumentation(dial func(addr string) (*Client, error), m *obs.RPCMetrics, tr *obs.Tracer) func(addr string) (*Client, error) {
	if dial == nil {
		dial = Dial
	}
	if m == nil && tr == nil {
		return dial
	}
	return func(addr string) (*Client, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetInstrumentation(m, tr, addr)
		return c, nil
	}
}

// methodLabel names a method for spans and error text.
func methodLabel(method uint16) string {
	if n := proto.MethodName(method); n != "" {
		return n
	}
	return "0x" + strconv.FormatUint(uint64(method), 16)
}

// WithTimeout wraps a dial function so every client it produces carries
// the default per-call deadline d.
func WithTimeout(dial func(addr string) (*Client, error), d time.Duration) func(addr string) (*Client, error) {
	if dial == nil {
		dial = Dial
	}
	if d <= 0 {
		return dial
	}
	return func(addr string) (*Client, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		c.SetTimeout(d)
		return c, nil
	}
}

// OnPush installs the handler invoked (from the read pump goroutine)
// for every push frame. Must be set before the first subscription is
// created. The payload is only valid for the duration of the callback
// — it may alias connection-owned read storage reused by the next
// frame — so handlers must decode or copy before returning.
func (c *Client) OnPush(fn func(subID uint64, payload []byte)) {
	c.mu.Lock()
	c.onPush = fn
	c.mu.Unlock()
}

// shard returns the pending-table stripe owning seq.
func (c *Client) shard(seq uint64) *pendingShard {
	return &c.pending[seq&(pendingShards-1)]
}

func (c *Client) readLoop(cn *wire.Conn) {
	for {
		// Small frames decode into connection-owned storage; whatever
		// must outlive this iteration is copied below. Large frames come
		// back freshly allocated and transfer ownership as before.
		f, reused, err := cn.ReadFrameReused()
		if err != nil {
			c.failAll(err)
			return
		}
		switch f.Kind {
		case wire.KindResponse:
			sh := c.shard(f.Seq)
			sh.mu.Lock()
			w, ok := sh.m[f.Seq]
			if ok {
				delete(sh.m, f.Seq)
			}
			sh.mu.Unlock()
			if !ok {
				break // abandoned by timeout/cancel; drop the late response
			}
			// Small replies are copied into pooled memory the caller
			// returns; large ones were freshly allocated and transfer as is.
			r := callResult{code: f.Code}
			switch {
			case len(f.Payload) == 0:
			case !reused:
				r.payload = f.Payload
			default:
				r.payload = append(wire.GetBuf(), f.Payload...)
				r.pooled = true
			}
			// Delivery cannot block: the channel holds one slot and the
			// waiter was just removed from the table, making us the only
			// sender for this registration.
			w.ch <- r
		case wire.KindPush:
			c.mu.Lock()
			fn := c.onPush
			c.mu.Unlock()
			if fn != nil {
				fn(f.Seq, f.Payload)
			}
		}
	}
}

// failAll marks the session dead and fails every pending call fast
// with a SessionError carrying cause — callers never hang on a peer
// that stopped responding. The error is recorded before closed flips,
// so any caller that observes closed reads a non-nil cause. With a
// sharded session the first pump to die brings down the sibling
// connections too (the session is one unit of failure); their pumps
// then re-enter here and find the table already swept.
func (c *Client) failAll(cause error) {
	c.mu.Lock()
	if c.sessionErr == nil {
		c.sessionErr = &SessionError{Cause: cause}
	}
	serr := c.sessionErr
	c.mu.Unlock()
	c.closed.Store(true)
	for _, cn := range c.conns {
		cn.Close()
	}
	for i := range c.pending {
		sh := &c.pending[i]
		sh.mu.Lock()
		for seq, w := range sh.m {
			delete(sh.m, seq)
			w.ch <- callResult{err: serr}
		}
		sh.mu.Unlock()
	}
	c.downOnce.Do(func() { close(c.readerDone) })
}

// closureErr reports why the session is closed.
func (c *Client) closureErr() error {
	c.mu.Lock()
	err := c.sessionErr
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return core.ErrClosed
}

// CallRaw performs one synchronous RPC and is, with CallMsg, the
// session's only call path. The request body is body followed by the
// scatter-gather segments vec (see ds.AppendRequestVec); either may be
// empty. Both are fully consumed before the call blocks on the reply,
// so the caller may reuse their memory as soon as CallRaw returns.
//
// A small reply comes back in borrowed memory: when pooled is true, out
// is a wire.GetBuf buffer the caller MUST return with wire.PutBuf once
// done with it — on error paths too, since some errors (redirects)
// carry meaningful payloads. Large replies come back heap-owned with
// pooled false. A non-OK wire code becomes the corresponding sentinel
// error from internal/core.
//
// A ctx deadline bounds the call on its own: expiry fails it with
// ErrTimeout wrapping context.DeadlineExceeded. Otherwise the session
// timeout (SetTimeout) applies, enforced by the watchdog, so a peer
// that stops reading cannot hang the caller forever. Cancellation
// abandons the reply (a late response frame is dropped by the read
// pump) and fails the call with the context's error.
//
// When instrumentation is attached the call updates the per-method
// stats (requests, bytes, in-flight, latency histogram) and, when a
// tracer or an inbound span rides ctx, propagates the span to the peer
// via a trace-extension frame written in the same flush as the request.
func (c *Client) CallRaw(ctx context.Context, method uint16, body []byte, vec [][]byte) (out []byte, pooled bool, err error) {
	in := c.instr.Load()
	if in == nil || !obs.On() {
		// No telemetry attached (or globally disabled): skip straight to
		// the wire. This keeps the uninstrumented path free of method
		// label lookups, span plumbing, and stat loads.
		return c.call(ctx, method, body, vec)
	}
	tracer := in.tracer
	var stats *obs.MethodStats
	var start time.Time
	if in.metrics != nil {
		stats = in.metrics.Method(method)
		stats.Requests.Inc()
		n := len(body)
		for _, seg := range vec {
			n += len(seg)
		}
		stats.BytesOut.Add(int64(n))
		stats.InFlight.Inc()
		start = time.Now()
	}
	var span obs.Span
	if tracer != nil {
		ctx, span = tracer.Begin(ctx, "rpc:"+methodLabel(method), in.peer)
	}
	out, pooled, err = c.call(ctx, method, body, vec)
	span.End(err)
	if stats != nil {
		stats.InFlight.Dec()
		stats.Latency.ObserveDuration(time.Since(start))
		stats.BytesIn.Add(int64(len(out)))
		if err != nil {
			stats.Errors.Inc()
		}
	}
	return out, pooled, err
}

// call is the uninstrumented request/response core of CallRaw.
func (c *Client) call(ctx context.Context, method uint16, body []byte, vec [][]byte) ([]byte, bool, error) {
	if c.closed.Load() {
		return nil, false, c.closureErr()
	}

	w := waiterPool.Get().(*waiter)
	// A call without a ctx deadline records the watchdog tick at which
	// the session timeout expires; the watchdog delivers ErrTimeout into
	// the waiter channel like any other result, so no timer is armed.
	var ticks uint64
	if timeout := time.Duration(c.timeout.Load()); timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			c.watchdogOnce.Do(func() { c.startWatchdog(timeout) })
			w.method, w.timeout = method, timeout
			ticks = watchdogTicks(timeout, c.sweep)
		}
	}
	seq := c.nextSeq.Add(1)
	sh := c.shard(seq)
	sh.mu.Lock()
	if ticks != 0 {
		// Read under the shard lock: every sweep that could expire the
		// call starts after it registered, so none counts early.
		w.expiry = c.tick.Load() + ticks
	}
	sh.m[seq] = w
	sh.mu.Unlock()
	// Re-check after registering: failAll flips closed before sweeping,
	// so a session death racing this call either left our entry for the
	// sweep (collect its result below) or we remove it ourselves here.
	if c.closed.Load() {
		return nil, false, c.abandon(seq, w, c.closureErr())
	}

	// Sharded sessions partition the sequence space across connections;
	// the response returns on the connection that carried the request.
	cn := c.conns[0]
	if len(c.conns) > 1 {
		cn = c.conns[seq%uint64(len(c.conns))]
	}

	// The trace extension, when a span rides ctx, is an optional leading
	// frame under the same seq and in the same flush. Old peers skip
	// non-request frames, so this stays wire-compatible.
	var ext []byte
	if sc, ok := obs.SpanFromContext(ctx); ok && sc.Valid() {
		ext = wire.EncodeTraceExt(sc.TraceID, sc.SpanID)
	}
	var err error
	if vec == nil && len(body) <= wire.InlineFrameThreshold {
		// Inline fast path: encode the frames into one pooled buffer and
		// hand the connection a single contiguous write. The frame values
		// stay on the stack; the group-commit flush treats the write like
		// any other convoy member.
		buf := wire.GetBuf()
		if ext != nil {
			buf = wire.AppendFrame(buf, &wire.Frame{Kind: wire.KindTraceExt, Seq: seq, Payload: ext})
		}
		req := wire.Frame{Kind: wire.KindRequest, Seq: seq, Method: method, Payload: body}
		buf = wire.AppendFrame(buf, &req)
		err = cn.WriteBytes(buf)
		wire.PutBuf(buf)
	} else {
		frames := make([]*wire.Frame, 0, 2)
		if ext != nil {
			frames = append(frames, &wire.Frame{Kind: wire.KindTraceExt, Seq: seq, Payload: ext})
		}
		frames = append(frames, &wire.Frame{Kind: wire.KindRequest, Seq: seq, Method: method,
			Payload: body, PayloadVec: vec})
		err = cn.WriteFrames(frames...)
	}
	if err != nil {
		if !errors.Is(err, wire.ErrFrameTooLarge) {
			// A transport write error sticks to the connection's buffered
			// writer, so the session cannot carry another call: fail it as
			// a unit, exactly as the read pump would on seeing the break.
			c.failAll(err)
			err = c.closureErr()
		}
		return nil, false, c.abandon(seq, w, err)
	}

	var r callResult
	if done := ctx.Done(); done == nil {
		// Bare receive: delivery comes from the read pump, failAll, or
		// the watchdog — all of which claim the pending entry first, so
		// exactly one arrives.
		r = <-w.ch
	} else {
		select {
		case r = <-w.ch:
		case <-done:
			cerr := ctx.Err()
			if errors.Is(cerr, context.DeadlineExceeded) {
				// Map context deadlines onto the typed timeout error so the
				// retry/failover classification built around ErrTimeout keeps
				// working; errors.Is still sees context.DeadlineExceeded.
				cerr = fmt.Errorf("rpc: call %s: %w: %w", methodLabel(method), core.ErrTimeout, cerr)
			} else {
				cerr = fmt.Errorf("rpc: call %s: %w", methodLabel(method), cerr)
			}
			return nil, false, c.abandon(seq, w, cerr)
		}
	}
	releaseWaiter(w)
	if r.err != nil {
		return nil, false, r.err
	}
	if r.code != core.CodeOK {
		// Error payloads still transfer to the caller: redirects carry
		// their target in the body.
		return r.payload, r.pooled, core.ErrOf(r.code, string(r.payload))
	}
	return r.payload, r.pooled, nil
}

// abandon gives up on a registered call: it removes the pending entry,
// or — when the read pump, failAll or the watchdog already claimed it —
// collects the in-flight result so pooled memory is returned and the
// waiter's channel is empty for reuse. It recycles w and returns err.
func (c *Client) abandon(seq uint64, w *waiter, err error) error {
	sh := c.shard(seq)
	sh.mu.Lock()
	_, mine := sh.m[seq]
	if mine {
		delete(sh.m, seq)
	}
	sh.mu.Unlock()
	if !mine {
		// The sender removed the entry first, which means a result is
		// already in the channel or about to be: the send happens
		// immediately after the removal and cannot block. Collect it so
		// the waiter recycles clean.
		r := <-w.ch
		if r.pooled {
			wire.PutBuf(r.payload)
		}
	}
	releaseWaiter(w)
	return err
}

// releaseWaiter recycles per-call state. The caller guarantees the
// channel is empty.
func releaseWaiter(w *waiter) {
	w.expiry = 0
	waiterPool.Put(w)
}

// maxSweep caps the watchdog's sweep period; minSweep keeps a tiny
// session timeout from turning the watchdog into a busy loop.
const (
	maxSweep = 100 * time.Millisecond
	minSweep = time.Millisecond
)

// sweepPeriod derives the watchdog period from the session timeout:
// an eighth of it, clamped to [minSweep, maxSweep]. A call expires
// between watchdogTicks-1 and watchdogTicks sweeps after it registers,
// so it never times out early and, for timeouts of at least 8ms, at
// most a quarter late.
func sweepPeriod(timeout time.Duration) time.Duration {
	return min(max(timeout/8, minSweep), maxSweep)
}

// watchdogTicks converts a timeout into a sweep count, rounding up and
// adding one so a call never expires early when it registers just
// before a sweep.
func watchdogTicks(timeout, sweep time.Duration) uint64 {
	return uint64((timeout+sweep-1)/sweep) + 1
}

// startWatchdog launches the timeout sweeper with its period fixed by
// the session timeout in force at the first timed call; it runs until
// the session dies and claims expired waiters exactly like the read
// pump: remove from the pending table first, then deliver. The timer
// is re-armed after each sweep, so consecutive sweeps are at least one
// period apart even when the goroutine is scheduled late.
func (c *Client) startWatchdog(timeout time.Duration) {
	c.sweep = sweepPeriod(timeout)
	go func() {
		t := time.NewTimer(c.sweep)
		defer t.Stop()
		for {
			select {
			case <-c.readerDone:
				return
			case <-t.C:
			}
			now := c.tick.Add(1)
			for i := range c.pending {
				sh := &c.pending[i]
				sh.mu.Lock()
				for seq, w := range sh.m {
					if w.expiry != 0 && now >= w.expiry {
						delete(sh.m, seq)
						w.ch <- callResult{err: fmt.Errorf("rpc: call %s timed out after %v: %w",
							methodLabel(w.method), w.timeout, core.ErrTimeout)}
					}
				}
				sh.mu.Unlock()
			}
			t.Reset(c.sweep)
		}
	}()
}

// Close tears down the session's connections; in-flight calls fail
// with ErrClosed.
func (c *Client) Close() error {
	var err error
	for _, cn := range c.conns {
		if cerr := cn.Close(); err == nil {
			err = cerr
		}
	}
	<-c.readerDone
	return err
}
