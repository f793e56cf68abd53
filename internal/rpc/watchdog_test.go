package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jiffy/internal/core"
	"jiffy/internal/wire"
)

// The timeout watchdog and hedge-read cancellation both claim pending
// calls out from under the caller: the watchdog delivers ErrTimeout
// into the waiter channel after removing the entry, and a canceled
// hedge arm abandons its waiter, collecting any in-flight result so the
// pooled buffer is returned. Both paths
// recycle the same sync.Pool waiters over the same session, so a
// double-release in either would hand one waiter to two concurrent
// calls — visible as cross-wired responses, stuck receives, or a
// double-put pooled buffer. This churn test drives both mechanisms at
// once on one session and then proves the session still pairs every
// response with its own request.

const (
	churnEcho  uint16 = 1
	churnStall uint16 = 2
)

// churnTimeout is the session timeout under churn; churnStallSleep is
// how long the stalled handler holds a call: past the watchdog expiry
// for a churnTimeout call (at most 1.2s), so the watchdog always claims
// the waiter first and the real response later arrives for an unknown
// seq and must be dropped and freed by the read pump.
const (
	churnTimeout    = time.Second
	churnStallSleep = 1500 * time.Millisecond
)

func TestWatchdogHedgeCancellationChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("~2s of real-clock watchdog sweeps")
	}
	handler := func(_ context.Context, _ *ServerConn, method uint16, payload []byte) ([]byte, error) {
		switch method {
		case churnEcho:
			return payload, nil
		case churnStall:
			time.Sleep(churnStallSleep)
			return []byte("late"), nil
		}
		return nil, fmt.Errorf("unknown method %d", method)
	}
	srv := NewServer(BytesHandler(handler), nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-churn-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Every call below records a watchdog expiry: the stalled ones wait
	// in a bare receive, the cancellable ones in a two-way select.
	c.SetTimeout(churnTimeout)

	// Arm 1: deadline-less stalled calls whose timeouts only the
	// watchdog can deliver.
	const stalls = 3
	var wg sync.WaitGroup
	var watchdogTimeouts atomic.Int32
	for i := 0; i < stalls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := call(c, churnStall, nil)
			if errors.Is(err, core.ErrTimeout) {
				watchdogTimeouts.Add(1)
			} else {
				t.Errorf("stalled call returned %v, want ErrTimeout from the watchdog", err)
			}
		}()
	}

	// Arm 2: hedge-style churn on the same session — borrowed-buffer
	// reads whose contexts are canceled at random points around the
	// response's arrival, racing abandon() against the read pump (and
	// the watchdog, which tracks these calls too). The
	// seed is fixed: a failure reproduces.
	rng := rand.New(rand.NewSource(1304))
	const churn = 600
	for i := 0; i < churn; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		want := fmt.Sprintf("churn-%03d", i)
		if i%2 == 0 {
			delay := time.Duration(rng.Intn(150)) * time.Microsecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		out, pooled, err := c.CallRaw(ctx, churnEcho, []byte(want), nil)
		switch {
		case err == nil:
			if string(out) != want {
				t.Fatalf("cross-wired response: got %q want %q", out, want)
			}
			if pooled {
				wire.PutBuf(out)
			}
		case errors.Is(err, context.Canceled):
			// Abandoned mid-flight; the waiter collected any in-flight
			// pooled result itself.
		default:
			t.Fatalf("churn call %d: %v", i, err)
		}
		cancel()
	}

	// The watchdog must have claimed every stalled waiter...
	wg.Wait()
	if n := watchdogTimeouts.Load(); n != stalls {
		t.Fatalf("watchdog delivered %d timeouts, want %d", n, stalls)
	}
	// ...and the late real responses then arrive for unknown seqs; give
	// them time to hit the read pump's drop path before probing health.
	time.Sleep(churnStallSleep - churnTimeout + 200*time.Millisecond)

	// The session survives: a concurrent batch still pairs every
	// response with its own request (a leaked or double-released waiter
	// would cross-wire or hang here).
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("after-%d", i)
			out, err := call(c, churnEcho, []byte(want))
			if err != nil {
				errs <- err
			} else if string(out) != want {
				errs <- fmt.Errorf("post-churn cross-wire: got %q want %q", out, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionTimeout pins the one timeout mechanism: with a 300ms
// session timeout, calls on contexts without a deadline — plain or
// cancellable — fail with ErrTimeout from the watchdog, never early
// and at most a quarter late (one sweep is 300ms/8), naming the method
// and the configured duration. A shorter ctx deadline wins and fails
// with ErrTimeout wrapping context.DeadlineExceeded.
func TestSessionTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	release := make(chan struct{})
	srv := NewServer(BytesHandler(func(_ context.Context, _ *ServerConn, _ uint16, _ []byte) ([]byte, error) {
		<-release
		return nil, nil
	}), nil)
	addr, err := srv.Listen(fmt.Sprintf("mem://rpc-timeout-%p", srv))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Unblock handlers before srv.Close (defers run LIFO).
	defer close(release)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(timeout)

	cases := []struct {
		name     string
		ctx      func() (context.Context, context.CancelFunc)
		min, max time.Duration
		deadline bool
	}{
		{"background", func() (context.Context, context.CancelFunc) {
			return context.Background(), func() {}
		}, timeout, timeout + timeout/4, false},
		{"cancellable", func() (context.Context, context.CancelFunc) {
			return context.WithCancel(context.Background())
		}, timeout, timeout + timeout/4, false},
		{"shorter-deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 50*time.Millisecond)
		}, 50 * time.Millisecond, timeout, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if i > 0 {
				// The previous case's timeout was delivered just after a
				// sweep: register this call just before the next one,
				// where an expiry one sweep short would fire early.
				time.Sleep(sweepPeriod(timeout) - 5*time.Millisecond)
			}
			ctx, cancel := tc.ctx()
			defer cancel()
			start := time.Now()
			_, err := callCtx(ctx, c, methodEcho, nil)
			elapsed := time.Since(start)
			if !errors.Is(err, core.ErrTimeout) {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if got := errors.Is(err, context.DeadlineExceeded); got != tc.deadline {
				t.Errorf("errors.Is(err, DeadlineExceeded) = %v, want %v (err %v)", got, tc.deadline, err)
			}
			if !tc.deadline {
				want := fmt.Sprintf("rpc: call %s timed out after %v", methodLabel(methodEcho), timeout)
				if !strings.HasPrefix(err.Error(), want) {
					t.Errorf("err = %q, want prefix %q", err, want)
				}
			}
			if elapsed < tc.min || elapsed > tc.max {
				t.Errorf("timed out after %v, want within [%v, %v]", elapsed, tc.min, tc.max)
			}
		})
	}
}
