package controller

import (
	"context"
	"errors"
	"fmt"

	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
)

// serverUnreachableError marks an RPC failure as connectivity-class:
// the server could not be dialed, or its session broke mid-call. It is
// evidence of server death — scale-ups use it to evict the server and
// retry elsewhere (see provisionChain) — as opposed to an error the
// server itself returned, which proves it is alive.
type serverUnreachableError struct {
	addr string
	err  error
}

func (e *serverUnreachableError) Error() string {
	return fmt.Sprintf("controller: server %s unreachable: %v", e.addr, e.err)
}

func (e *serverUnreachableError) Unwrap() error { return e.err }

// callServer performs one control RPC against a memory server,
// classifying dial failures and broken sessions as
// serverUnreachableError (and dropping the broken pooled session so
// the next call re-dials instead of reusing a dead connection).
func (c *Controller) callServer(addr string, method uint16, req, resp interface{}) error {
	cl, err := c.servers.Get(addr)
	if err != nil {
		return &serverUnreachableError{addr: addr, err: err}
	}
	if err := cl.CallMsg(context.TODO(), method, req, resp); err != nil {
		if errors.Is(err, core.ErrClosed) {
			c.servers.Drop(addr)
			return &serverUnreachableError{addr: addr, err: err}
		}
		return fmt.Errorf("controller: %s method %#x: %w", addr, method, err)
	}
	return nil
}

// createBlockOnServer installs a partition for one block.
func (c *Controller) createBlockOnServer(info core.BlockInfo, path core.Path,
	t core.DSType, chunk int, slots []ds.SlotRange, chain core.ReplicaChain) error {
	req := proto.CreateBlockReq{
		Block:    info.ID,
		Path:     path,
		Type:     t,
		Capacity: c.cfg.BlockSize,
		NumSlots: c.cfg.NumHashSlots,
		Slots:    slots,
		Chunk:    chunk,
		Chain:    chain,
	}
	var resp proto.CreateBlockResp
	err := c.callServer(info.Server, proto.MethodCreateBlock, req, &resp)
	if errors.Is(err, core.ErrExists) {
		// The server holds a partition under an ID the committed
		// metadata says is free: an orphan from a previous leader's
		// uncommitted work (a chain splice cut short by the leader's
		// death never reaches the op-log, but its replacement block
		// survives on the server). The replicated metadata is
		// authoritative — reclaim the orphan and install the new
		// partition in its place.
		c.log.Warn("controller: reclaiming orphan block",
			"block", info.ID, "on", info.Server)
		var dresp proto.DeleteBlockResp
		if derr := c.callServer(info.Server, proto.MethodDeleteBlock,
			proto.DeleteBlockReq{Block: info.ID}, &dresp); derr != nil {
			return err
		}
		err = c.callServer(info.Server, proto.MethodCreateBlock, req, &resp)
	}
	return err
}

// deleteBlockOnServer removes a block's partition; failures are logged
// (the server may already be gone) and the block is still freed. Any
// tier record for the member is dropped with it — a deleted block's
// tier object must never be resurrected by a later repair, especially
// since block IDs are recycled through the free list.
func (c *Controller) deleteBlockOnServer(info core.BlockInfo) {
	c.dropTierRecord(info)
	var resp proto.DeleteBlockResp
	err := c.callServer(info.Server, proto.MethodDeleteBlock,
		proto.DeleteBlockReq{Block: info.ID}, &resp)
	if err != nil {
		c.log.Debug("controller: delete block failed", "block", info, "err", err)
	}
}

// setNextOnServer links a queue segment to its successor.
func (c *Controller) setNextOnServer(tail core.BlockInfo, next core.BlockInfo) error {
	var resp proto.SetNextResp
	return c.callServer(tail.Server, proto.MethodSetNext,
		proto.SetNextReq{Block: tail.ID, Next: next}, &resp)
}

// exportSlotsOnServer removes the given slot ranges from one replica
// of a KV block, returning the removed pairs.
func (c *Controller) exportSlotsOnServer(member core.BlockInfo, ranges []ds.SlotRange) ([]ds.KVEntry, error) {
	var resp proto.ExportSlotsResp
	err := c.callServer(member.Server, proto.MethodExportSlots,
		proto.ExportSlotsReq{Block: member.ID, Ranges: ranges}, &resp)
	return resp.Entries, err
}

// importEntriesOnServer installs pairs (and range ownership) into one
// replica of a KV block.
func (c *Controller) importEntriesOnServer(member core.BlockInfo, ranges []ds.SlotRange, entries []ds.KVEntry) error {
	var resp proto.ImportEntriesResp
	return c.callServer(member.Server, proto.MethodImportEntries,
		proto.ImportEntriesReq{Block: member.ID, Ranges: ranges, Entries: entries}, &resp)
}

// flushBlockOnServer snapshots a block into the persistent store.
func (c *Controller) flushBlockOnServer(info core.BlockInfo, key string) error {
	var resp proto.FlushBlockResp
	return c.callServer(info.Server, proto.MethodFlushBlock,
		proto.FlushBlockReq{Block: info.ID, Key: key}, &resp)
}

// snapshotBlockOnServer fetches a block's partition snapshot.
func (c *Controller) snapshotBlockOnServer(info core.BlockInfo) ([]byte, error) {
	var resp proto.SnapshotBlockResp
	err := c.callServer(info.Server, proto.MethodSnapshotBlock,
		proto.SnapshotBlockReq{Block: info.ID}, &resp)
	return resp.Snapshot, err
}

// restoreBlockOnServer replaces a block's partition state.
func (c *Controller) restoreBlockOnServer(info core.BlockInfo, snapshot []byte) error {
	var resp proto.RestoreBlockResp
	return c.callServer(info.Server, proto.MethodRestoreBlock,
		proto.RestoreBlockReq{Block: info.ID, Snapshot: snapshot}, &resp)
}

// updateChainOnServer switches one block to a new chain layout under a
// new replication generation (see repair.go).
func (c *Controller) updateChainOnServer(member core.BlockInfo, chain core.ReplicaChain, gen uint64) error {
	var resp proto.UpdateChainResp
	return c.callServer(member.Server, proto.MethodUpdateChain,
		proto.UpdateChainReq{Block: member.ID, Chain: chain, Gen: gen}, &resp)
}

// sealBlockOnServer fences a block against all further writes (reads
// keep serving) — the drain-time barrier taken before a migration
// snapshot, so no acknowledged write can postdate the snapshot.
func (c *Controller) sealBlockOnServer(member core.BlockInfo) error {
	var resp proto.UpdateChainResp
	return c.callServer(member.Server, proto.MethodUpdateChain,
		proto.UpdateChainReq{Block: member.ID, Seal: true}, &resp)
}

// loadBlockOnServer restores a block from the persistent store.
func (c *Controller) loadBlockOnServer(info core.BlockInfo, key string) error {
	var resp proto.LoadBlockResp
	return c.callServer(info.Server, proto.MethodLoadBlock,
		proto.LoadBlockReq{Block: info.ID, Key: key}, &resp)
}
