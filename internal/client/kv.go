package client

import (
	"context"
	"errors"

	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// KV is the client handle for a Jiffy KV store (§5.3). Operations hash
// the key to a slot, route to the block owning the slot via the cached
// partition map, and transparently recover from repartitioning:
// ErrStaleEpoch refreshes the map; ErrBlockFull triggers a split
// request and retries.
type KV struct {
	h *handle
}

// Path returns the handle's address prefix.
func (k *KV) Path() core.Path { return k.h.path }

// route picks the block for key from the cached map: mutations go to
// the chain head, reads to the tail (plain Info when unreplicated). A
// slot without an owner in the cached map is a stale-map miss. Servers
// in avoid have failed this operation; reads fall back to the closest
// upstream chain member still reachable — safe because chain
// propagation is synchronous, so every replica holds all acknowledged
// writes.
func (k *KV) route(key string, op core.OpType, avoid map[string]bool) (core.BlockInfo, error) {
	m := k.h.snapshot()
	if m.NumSlots == 0 {
		return core.BlockInfo{}, core.ErrStaleEpoch
	}
	e, ok := m.BlockForSlot(ds.SlotOf(key, m.NumSlots))
	if !ok {
		return core.BlockInfo{}, core.ErrStaleEpoch
	}
	if e.Lost {
		return core.BlockInfo{}, lostErr(e)
	}
	if op.IsMutation() {
		return e.WriteTarget(), nil
	}
	rt := e.ReadTarget()
	if avoid[rt.Server] {
		for i := len(e.Chain) - 1; i >= 0; i-- {
			if !avoid[e.Chain[i].Server] {
				return e.Chain[i], nil
			}
		}
	}
	return rt, nil
}

// exec runs one keyed op through the handle's recovery loop; a full
// block asks for a split.
func (k *KV) exec(ctx context.Context, op core.OpType, key string, args [][]byte) ([][]byte, error) {
	return k.h.retry(ctx, op, key, func(avoid map[string]bool) (core.BlockInfo, [][]byte, error) {
		at, err := k.route(key, op, avoid)
		if err != nil {
			return at, nil, err
		}
		var res [][]byte
		if op.IsMutation() {
			res, err = k.h.do(ctx, at, op, args)
		} else {
			// Idempotent reads may hedge against another chain member.
			res, err = k.h.doRead(ctx, at, op, args)
		}
		return at, res, err
	}, k.h.refresh, k.h.scaleOnFull)
}

// Put stores a key-value pair.
func (k *KV) Put(ctx context.Context, key string, value []byte) error {
	_, err := k.exec(ctx, core.OpPut, key, [][]byte{[]byte(key), value})
	return err
}

// Get fetches the value for key.
func (k *KV) Get(ctx context.Context, key string) ([]byte, error) {
	res, err := k.exec(ctx, core.OpGet, key, [][]byte{[]byte(key)})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Exists reports whether key is present.
func (k *KV) Exists(ctx context.Context, key string) (bool, error) {
	_, err := k.exec(ctx, core.OpExists, key, [][]byte{[]byte(key)})
	if errors.Is(err, core.ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// Delete removes key and returns the previous value.
func (k *KV) Delete(ctx context.Context, key string) ([]byte, error) {
	res, err := k.exec(ctx, core.OpDelete, key, [][]byte{[]byte(key)})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Update overwrites an existing key and returns the previous value;
// fails with ErrNotFound if the key is absent.
func (k *KV) Update(ctx context.Context, key string, value []byte) ([]byte, error) {
	res, err := k.exec(ctx, core.OpUpdate, key, [][]byte{[]byte(key), value})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Subscribe registers for notifications on the given op types across
// all blocks of the KV store (ds.subscribe in Table 1).
func (k *KV) Subscribe(ctx context.Context, ops ...core.OpType) (*Listener, error) {
	return k.h.c.subscribe(ctx, k.h, ops)
}
