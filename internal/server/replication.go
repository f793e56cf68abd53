package server

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/proto"
)

// Chain replication (§4.2.2): Jiffy supports chain replication at
// block granularity for applications that need intermediate-data fault
// tolerance. Writes enter at the chain head; the head applies each
// mutation under a per-block sequence lock (so the propagation
// stream's sequence order equals its local apply order) and forwards
// it synchronously to its successor, which applies mutations strictly
// in sequence order and forwards onwards. By the time the head
// acknowledges a write, every replica holds it. Reads are served at
// the tail — the classic chain-replication consistency argument: the
// tail only ever holds fully propagated writes. The controller
// provisions chains, spreads members across servers, resynchronizes
// replicas by snapshot after KV slot moves (which bypass this path),
// and splices dead members out of chains (see internal/controller's
// repair planner); each splice starts a new chain generation so
// mutations from the old configuration fail fast instead of deadlocking
// the sequence stream.

// ChainHopError reports a transport-level failure reaching the next
// chain hop: the hop's server is unreachable or the connection died
// mid-call. It is write-path evidence that the server may be dead, so
// the head reports it to the controller's failure detector.
type ChainHopError struct {
	Hop core.BlockInfo
	Err error
}

func (e *ChainHopError) Error() string {
	return fmt.Sprintf("server: chain hop %v unreachable: %v", e.Hop, e.Err)
}

func (e *ChainHopError) Unwrap() error { return e.Err }

// ReplicaApplyError reports that a reachable replica failed to apply a
// forwarded mutation — an operation-level failure (stale generation,
// unknown block, partition error), not evidence that the hop is dead.
type ReplicaApplyError struct {
	Block core.BlockID
	Err   error
}

func (e *ReplicaApplyError) Error() string {
	return fmt.Sprintf("server: replica %v apply failed: %v", e.Block, e.Err)
}

func (e *ReplicaApplyError) Unwrap() error { return e.Err }

// propagate forwards a sequenced mutation from the chain head to its
// first successor. chain is the head's chain snapshot taken when the
// sequence number was assigned, so a concurrent repair splice cannot
// mix configurations within one mutation.
func (s *Server) propagate(ctx context.Context, b *blockstore.Block, chain core.ReplicaChain,
	seq, gen uint64, op core.OpType, args [][]byte) error {
	pos := chainPos(chain, b.ID)
	if pos < 0 || pos+1 >= len(chain) {
		return nil // sole replica or tail: nothing to forward
	}
	return s.forward(ctx, chain[pos+1], seq, gen, op, args, chain)
}

// applyReplicated applies a forwarded mutation in sequence order and
// continues the chain.
func (s *Server) applyReplicated(ctx context.Context, req proto.ReplicateReq) error {
	b, err := s.resolve(req.Block)
	if err != nil {
		return err
	}
	defer b.EndOp()
	if _, err := b.ApplyInOrder(req.Seq, req.Gen, func() ([][]byte, error) {
		return s.store.ApplyOn(b, req.Op, req.Args, true)
	}); err != nil {
		return fmt.Errorf("server: replica apply: %w", err)
	}
	pos := chainPos(req.Chain, req.Block)
	if pos < 0 || pos+1 >= len(req.Chain) {
		return nil
	}
	return s.forward(ctx, req.Chain[pos+1], req.Seq, req.Gen, req.Op, req.Args, req.Chain)
}

// forward ships a mutation to the next chain hop, classifying failures:
// transport-level failures become ChainHopError (and are reported to
// the controller as death evidence), everything else becomes
// ReplicaApplyError.
func (s *Server) forward(ctx context.Context, next core.BlockInfo, seq, gen uint64, op core.OpType, args [][]byte,
	chain core.ReplicaChain) error {
	peer, err := s.peers.Get(next.Server)
	if err != nil {
		s.reportFailedHop(next)
		return &ChainHopError{Hop: next, Err: err}
	}
	var resp proto.ReplicateResp
	start := s.clk.Now()
	err = peer.CallMsg(ctx, proto.MethodReplicate, proto.ReplicateReq{
		Block: next.ID,
		Op:    op,
		Args:  args,
		Chain: chain,
		Seq:   seq,
		Gen:   gen,
	}, &resp)
	if err == nil {
		// The successor applies in sequence order before replying, so the
		// forward round trip is a direct proxy for its ApplyInOrder stall:
		// a persistently slow hop is gray-failure evidence.
		s.noteForwardLatency(next, s.clk.Now().Sub(start))
		return nil
	}
	if errors.Is(err, core.ErrClosed) || errors.Is(err, core.ErrTimeout) {
		// The session died mid-call: evict it so the next attempt
		// re-dials, and surface the hop as possibly dead.
		s.peers.Drop(next.Server)
		s.reportFailedHop(next)
		return &ChainHopError{Hop: next, Err: err}
	}
	return &ReplicaApplyError{Block: next.ID, Err: err}
}

// chainPos locates id inside chain (-1 when absent).
func chainPos(chain core.ReplicaChain, id core.BlockID) int {
	for i, b := range chain {
		if b.ID == id {
			return i
		}
	}
	return -1
}
