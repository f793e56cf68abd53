package client

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"jiffy/internal/core"
)

// Queue is the client handle for a Jiffy FIFO queue (§5.2). The client
// caches the head and tail segments ("the controller only stores the
// head and the tail blocks ... which the client caches and updates");
// redirects from drained/sealed segments walk the cache forward without
// a controller round trip.
type Queue struct {
	h *handle

	mu   sync.Mutex
	head core.BlockInfo
	tail core.BlockInfo
}

// Path returns the handle's address prefix.
func (q *Queue) Path() core.Path { return q.h.path }

// ends returns the cached head/tail, seeding them from the map.
func (q *Queue) ends() (core.BlockInfo, core.BlockInfo, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head.Server == "" || q.tail.Server == "" {
		m := q.h.snapshot()
		h, ok1 := m.Head()
		t, ok2 := m.Tail()
		if !ok1 || !ok2 {
			return core.BlockInfo{}, core.BlockInfo{}, core.ErrNotFound
		}
		if h.Lost {
			return core.BlockInfo{}, core.BlockInfo{}, lostErr(h)
		}
		if t.Lost {
			return core.BlockInfo{}, core.BlockInfo{}, lostErr(t)
		}
		q.head, q.tail = h.Info, t.Info
	}
	return q.head, q.tail, nil
}

// reseed drops the cached ends and refreshes the map.
func (q *Queue) reseed(ctx context.Context) error {
	if err := q.h.refresh(ctx); err != nil {
		return err
	}
	m := q.h.snapshot()
	h, ok1 := m.Head()
	t, ok2 := m.Tail()
	if !ok1 || !ok2 {
		return core.ErrNotFound
	}
	q.mu.Lock()
	q.head, q.tail = h.Info, t.Info
	q.mu.Unlock()
	return nil
}

// Enqueue appends an item to the queue tail.
func (q *Queue) Enqueue(ctx context.Context, item []byte) error {
	_, err := q.exec(ctx, core.OpEnqueue, [][]byte{item})
	return err
}

// Dequeue removes and returns the oldest item; returns ErrEmpty when
// the queue has no pending items.
func (q *Queue) Dequeue(ctx context.Context) ([]byte, error) {
	return q.take(ctx, core.OpDequeue)
}

// Peek returns the oldest pending item without consuming it; returns
// ErrEmpty when the queue has no pending items. Peeks follow the same
// redirect chain as dequeues, and on the server they share the
// segment's read lock, so concurrent peeks never serialize against
// each other. Being idempotent reads, they may hedge against another
// member of the head segment's chain.
func (q *Queue) Peek(ctx context.Context) ([]byte, error) {
	return q.take(ctx, core.OpQueuePeek)
}

// take runs a dequeue or a peek against the head segment.
func (q *Queue) take(ctx context.Context, op core.OpType) ([]byte, error) {
	res, err := q.exec(ctx, op, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// exec runs one queue op through the handle's recovery loop: enqueues
// go to the cached tail, dequeues and peeks to the cached head. The
// queue's own arms follow a sealed or drained segment's redirect to
// its successor without a controller round trip, and grow a full tail.
// An empty queue's ErrEmpty is final like any other answer.
func (q *Queue) exec(ctx context.Context, op core.OpType, args [][]byte) ([][]byte, error) {
	atTail := op == core.OpEnqueue
	return q.h.retry(ctx, op, "", func(map[string]bool) (core.BlockInfo, [][]byte, error) {
		at, tail, err := q.ends()
		if atTail {
			at = tail
		}
		if err != nil {
			return at, nil, err
		}
		if !op.IsMutation() {
			// A peek carries no arguments and may hedge; keeping args
			// off the hedged path keeps an enqueue's args on the stack.
			res, err := q.h.doRead(ctx, at, op, nil)
			return at, res, err
		}
		res, err := q.h.do(ctx, at, op, args)
		return at, res, err
	}, q.reseed, func(ctx context.Context, err error, at core.BlockInfo) (verdict, error) {
		if r, ok := err.(*redirect); ok {
			q.mu.Lock()
			if atTail {
				q.tail = r.next
			} else {
				q.head = r.next
			}
			q.mu.Unlock()
			return retryNow, nil
		}
		if errors.Is(err, core.ErrBlockFull) {
			if gerr := q.growTail(ctx, at.ID); gerr != nil {
				return final, gerr
			}
			return retryLater, nil
		}
		return shared, nil
	})
}

// growTail answers a full tail segment: ask for a scale-up, re-learn
// the ends, and report a bounded queue already at its block limit as
// backpressure to the producer instead of spinning.
func (q *Queue) growTail(ctx context.Context, tail core.BlockID) error {
	if err := q.h.grow(ctx, tail); err != nil {
		return err
	}
	if err := q.reseed(ctx); err != nil {
		return err
	}
	if m := q.h.snapshot(); m.AtMaxBlocks() {
		if t, ok := m.Tail(); ok && t.Info.ID == tail {
			return fmt.Errorf("client: bounded queue full: %w", core.ErrBlockFull)
		}
	}
	return nil
}

// Subscribe registers for notifications on the queue's blocks —
// dataflow consumers subscribe to enqueue to learn when channel data is
// available (§5.2).
func (q *Queue) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return q.h.c.subscribe(ctx, q.h, ops)
}
