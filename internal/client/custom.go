package client

import (
	"context"
	"fmt"

	"jiffy/internal/core"
)

// Custom is the raw handle for application-defined data structures
// (ds.Register): it exposes block-addressed operation execution with
// the same staleness recovery as the typed handles. Applications
// usually wrap it in their own typed API, the way §5's built-ins wrap
// the internal block interface.
type Custom struct {
	h *handle
}

// OpenCustom opens a handle to the custom structure at path,
// validating its registered type code.
func (c *Client) OpenCustom(ctx context.Context, path core.Path, t core.DSType) (*Custom, error) {
	h, err := c.newHandle(ctx, path, t)
	if err != nil {
		return nil, err
	}
	return &Custom{h: h}, nil
}

// Path returns the handle's address prefix.
func (cu *Custom) Path() core.Path { return cu.h.path }

// Blocks returns the structure's current chunk count (after a refresh).
func (cu *Custom) Blocks(ctx context.Context) (int, error) {
	if err := cu.h.refresh(ctx); err != nil {
		return 0, err
	}
	return len(cu.h.snapshot().Blocks), nil
}

// Exec runs one operation against chunk index ci through the handle's
// recovery loop. Reads route to the chunk's chain tail, mutations to
// its head.
func (cu *Custom) Exec(ctx context.Context, ci int, op core.OpType, args ...[]byte) ([][]byte, error) {
	return cu.h.retry(ctx, op, "", func(map[string]bool) (core.BlockInfo, [][]byte, error) {
		m := cu.h.snapshot()
		e, ok := m.BlockForChunk(ci)
		if !ok {
			return core.BlockInfo{}, nil, fmt.Errorf("client: custom chunk %d: %w", ci, core.ErrNotFound)
		}
		if e.Lost {
			return core.BlockInfo{}, nil, lostErr(e)
		}
		at := e.ReadTarget()
		if op.IsMutation() {
			at = e.WriteTarget()
		}
		res, err := cu.h.do(ctx, at, op, args)
		return at, res, err
	}, cu.h.refresh, nil)
}

// Grow asks the controller to append one more block to the structure
// (custom structures scale like files: new chunks, no data movement).
func (cu *Custom) Grow(ctx context.Context) error {
	m := cu.h.snapshot()
	last, ok := m.Tail()
	if !ok {
		return core.ErrNotFound
	}
	if err := cu.h.requestScale(ctx, last.Info.ID); err != nil {
		return err
	}
	return cu.h.refresh(ctx)
}

// Subscribe registers for notifications on the structure's blocks.
func (cu *Custom) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return cu.h.c.subscribe(ctx, cu.h, ops)
}
