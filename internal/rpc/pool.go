package rpc

import (
	"fmt"
	"sync"

	"jiffy/internal/core"
)

// Pool caches one Client per remote address. Both the controller (which
// calls into every memory server) and the client library (which talks
// to the controller plus the servers hosting its blocks) use it.
type Pool struct {
	mu    sync.Mutex
	conns map[string]*Client
	// dialing holds the in-flight dial per address; callers that miss
	// the cache while one is pending wait on it instead of dialing too.
	dialing map[string]*pendingDial
	dial    func(addr string) (*Client, error)
	closed  bool
}

// pendingDial is one in-flight dial: done closes once c and err are set.
type pendingDial struct {
	done chan struct{}
	c    *Client
	err  error
}

// NewPool creates a pool using dial (defaults to Dial).
func NewPool(dial func(addr string) (*Client, error)) *Pool {
	if dial == nil {
		dial = Dial
	}
	return &Pool{conns: make(map[string]*Client), dialing: make(map[string]*pendingDial), dial: dial}
}

// Get returns the cached client for addr, dialing on first use. A
// cached session whose read pump has died is evicted and re-dialed
// transparently, so callers never receive a client that can only fail.
// Concurrent misses on one address share a single dial: after a server
// restart, every goroutine that talks to it waits on one new session
// rather than each dialing its own.
func (p *Pool) Get(addr string) (*Client, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, core.ErrClosed
	}
	if c, ok := p.conns[addr]; ok {
		if !c.IsClosed() {
			p.mu.Unlock()
			return c, nil
		}
		delete(p.conns, addr)
	}
	if d, ok := p.dialing[addr]; ok {
		p.mu.Unlock()
		<-d.done
		return d.c, d.err
	}
	d := &pendingDial{done: make(chan struct{})}
	p.dialing[addr] = d
	p.mu.Unlock()

	// Dial outside the lock. An unreachable address classifies as a
	// connection failure: before dead-session eviction existed, callers
	// saw ErrClosed from the cached dead session's first call, and
	// retry/fallback logic throughout keys on that classification.
	c, err := p.dial(addr)
	p.mu.Lock()
	delete(p.dialing, addr)
	switch {
	case err != nil:
		d.err = fmt.Errorf("rpc: dial %s: %v: %w", addr, err, core.ErrClosed)
	case p.closed:
		c.Close()
		d.err = core.ErrClosed
	default:
		p.conns[addr] = c
		d.c = c
	}
	p.mu.Unlock()
	close(d.done)
	return d.c, d.err
}

// Drop removes and closes the cached client for addr (after a
// connection-level failure, so the next Get re-dials).
func (p *Pool) Drop(addr string) {
	p.mu.Lock()
	c, ok := p.conns[addr]
	delete(p.conns, addr)
	p.mu.Unlock()
	if ok {
		c.Close()
	}
}

// Close closes every cached connection.
func (p *Pool) Close() {
	p.mu.Lock()
	conns := p.conns
	p.conns = map[string]*Client{}
	p.closed = true
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
