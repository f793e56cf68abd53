package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/obs"
)

// loopHandle is a handle with no cluster behind it: just the retry
// policy and the counters handle.retry reads. Backoffs and throttle
// waits are a microsecond, so a full budget runs in milliseconds.
func loopHandle(limit, throttleLimit int) *handle {
	c := &Client{
		policy: RetryPolicy{
			Limit:           limit,
			MaxBackoff:      time.Microsecond,
			ThrottleLimit:   throttleLimit,
			MaxThrottleWait: time.Microsecond,
		},
		rpcm:          obs.NewRPCMetrics("client"),
		throttleWaits: &obs.Counter{},
	}
	return &handle{c: c, path: "loop/p", pmap: ds.PartitionMap{Type: core.DSKV}}
}

// repeat returns n copies of err.
func repeat(n int, err error) []error {
	out := make([]error, n)
	for i := range out {
		out[i] = err
	}
	return out
}

// TestRecoveryLoop is the unit-level record of the single-op recovery
// policy: for each error class, which steps the loop runs (resync,
// the type's own scale arm, throttle waits, backoffs), how many
// attempts it makes, and what the caller finally sees. The fake try
// step fails with the listed errors in turn, then succeeds.
func TestRecoveryLoop(t *testing.T) {
	const limit, throttleLimit = 6, 3
	degraded := &core.DegradedError{Server: "s1", RetryAfter: time.Second}
	conn := fmt.Errorf("rpc: session: %w", core.ErrClosed)
	redir := &redirect{next: core.BlockInfo{ID: 2, Server: "s2"}}
	refused := errors.New("scale refused")
	cases := []struct {
		name      string
		errs      []error
		scaleErr  error // the own step's scale-up fails with this
		resyncErr error // every resync fails with this
		want      error // nil: success
		exhausted bool  // want also carries the retries-exhausted text
		tries     int
		resyncs   int
		scales    int
		waits     int
		backoffs  int
	}{
		{name: "nil", tries: 1},
		{name: "stale", errs: []error{core.ErrStaleEpoch}, tries: 2, resyncs: 1, backoffs: 1},
		{name: "full", errs: []error{core.ErrBlockFull}, tries: 2, scales: 1, backoffs: 1},
		{name: "full, scale refused", errs: []error{core.ErrBlockFull}, scaleErr: refused,
			want: refused, tries: 1, scales: 1},
		{name: "redirect", errs: []error{redir}, tries: 2},
		{name: "empty", errs: []error{core.ErrEmpty}, want: core.ErrEmpty, tries: 1},
		{name: "not found", errs: []error{core.ErrNotFound}, want: core.ErrNotFound, tries: 1},
		{name: "quota within ThrottleLimit", errs: repeat(throttleLimit, core.ErrQuotaExceeded),
			tries: throttleLimit + 1, waits: throttleLimit},
		{name: "quota past ThrottleLimit", errs: repeat(throttleLimit+1, core.ErrQuotaExceeded),
			want: core.ErrQuotaExceeded, tries: throttleLimit + 1, waits: throttleLimit},
		// Throttle waits never spend Limit: ThrottleLimit refusals and
		// then Limit-1 connection failures still leave the last attempt.
		{name: "throttles do not spend Limit",
			errs:  append(repeat(throttleLimit, core.ErrQuotaExceeded), repeat(limit-1, conn)...),
			tries: throttleLimit + limit, resyncs: limit - 1, waits: throttleLimit, backoffs: limit - 1},
		{name: "degraded once", errs: []error{degraded}, tries: 2, resyncs: 1, backoffs: 1},
		{name: "degraded twice", errs: []error{degraded, degraded}, want: degraded, tries: 2,
			resyncs: 1, backoffs: 1},
		{name: "connection failure then degraded", errs: []error{conn, degraded}, want: degraded,
			tries: 2, resyncs: 1, backoffs: 1},
		{name: "connection failure", errs: []error{conn}, tries: 2, resyncs: 1, backoffs: 1},
		{name: "connection failure, controller unreachable", errs: []error{conn}, resyncErr: conn,
			tries: 2, resyncs: 1, backoffs: 1},
		{name: "stale, resync fails", errs: []error{core.ErrStaleEpoch}, resyncErr: conn, want: conn,
			tries: 1, resyncs: 1},
		{name: "caller canceled", errs: []error{fmt.Errorf("rpc: %w: %w", core.ErrTimeout, context.Canceled)},
			want: context.Canceled, tries: 1},
		{name: "caller deadline", errs: []error{fmt.Errorf("rpc: %w: %w", core.ErrTimeout, context.DeadlineExceeded)},
			want: context.DeadlineExceeded, tries: 1},
		{name: "exhausted by connection failures", errs: repeat(limit, conn), want: core.ErrClosed,
			exhausted: true, tries: limit, resyncs: limit, backoffs: limit},
		// A route that keeps missing and a queue that keeps redirecting
		// still name their cause once the budget runs out.
		{name: "exhausted by route misses", errs: repeat(limit, core.ErrStaleEpoch),
			want: core.ErrStaleEpoch, exhausted: true, tries: limit, resyncs: limit, backoffs: limit},
		{name: "exhausted by redirects", errs: repeat(limit, redir), want: core.ErrRedirect,
			exhausted: true, tries: limit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := loopHandle(limit, throttleLimit)
			at := core.BlockInfo{ID: 1, Server: "s1"}
			tries, resyncs, scales := 0, 0, 0
			var avoided []bool
			try := func(avoid map[string]bool) (core.BlockInfo, [][]byte, error) {
				avoided = append(avoided, avoid[at.Server])
				tries++
				if tries <= len(tc.errs) {
					return at, nil, tc.errs[tries-1]
				}
				return at, [][]byte{[]byte("ok")}, nil
			}
			resync := func(context.Context) error {
				resyncs++
				return tc.resyncErr
			}
			own := func(_ context.Context, err error, _ core.BlockInfo) (verdict, error) {
				switch {
				case errors.Is(err, core.ErrRedirect):
					return retryNow, nil
				case errors.Is(err, core.ErrBlockFull):
					scales++
					if tc.scaleErr != nil {
						return final, tc.scaleErr
					}
					return retryLater, nil
				}
				return shared, nil
			}
			res, err := h.retry(context.Background(), core.OpGet, "k", try, resync, own)

			if tc.want == nil {
				if err != nil || len(res) != 1 || string(res[0]) != "ok" {
					t.Fatalf("retry = %q, %v; want ok, nil", res, err)
				}
			} else if !errors.Is(err, tc.want) {
				t.Fatalf("retry error = %v; want %v", err, tc.want)
			}
			if got := err != nil && strings.Contains(err.Error(), "retries exhausted"); got != tc.exhausted {
				t.Errorf("retries-exhausted error = %v, want %v (err %v)", got, tc.exhausted, err)
			}
			if err != nil && strings.Contains(err.Error(), "%!") {
				t.Errorf("malformed error text: %v", err)
			}
			if tries != tc.tries || resyncs != tc.resyncs || scales != tc.scales {
				t.Errorf("tries/resyncs/scales = %d/%d/%d, want %d/%d/%d",
					tries, resyncs, scales, tc.tries, tc.resyncs, tc.scales)
			}
			if obs.On() {
				waits, backoffs := int(h.c.throttleWaits.Value()), int(h.c.rpcm.Retries.Value())
				if waits != tc.waits || backoffs != tc.backoffs {
					t.Errorf("throttle waits/backoffs = %d/%d, want %d/%d",
						waits, backoffs, tc.waits, tc.backoffs)
				}
			}
			// A server that failed this call is avoided from then on.
			for i, e := range tc.errs {
				if i+1 < len(avoided) && (errors.Is(e, core.ErrServerDegraded) || isConnErr(e)) && !avoided[i+1] {
					t.Errorf("try %d after %v did not avoid the server", i+2, e)
				}
			}
		})
	}
}

// TestRecoveryLoopStopsWithCaller: a caller whose context ends while
// the loop waits out a throttle's retry-after hint gets its context
// error at once, with no further attempt.
func TestRecoveryLoopStopsWithCaller(t *testing.T) {
	h := loopHandle(32, 4)
	h.c.policy.MaxThrottleWait = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tries := 0
	start := time.Now()
	_, err := h.retry(ctx, core.OpPut, "k", func(map[string]bool) (core.BlockInfo, [][]byte, error) {
		tries++
		return core.BlockInfo{}, nil, &core.ThrottleError{Tenant: "loop", RetryAfter: time.Hour}
	}, func(context.Context) error { return nil }, nil)
	if !errors.Is(err, context.DeadlineExceeded) || tries != 1 {
		t.Fatalf("retry = %v after %d tries; want DeadlineExceeded after 1", err, tries)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("retry returned after %v; the caller's deadline was 20ms", d)
	}
}
