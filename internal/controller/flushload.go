package controller

import (
	"fmt"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
	"jiffy/internal/proto"
)

// manifest records a flushed prefix's layout so Load can rebuild the
// partition map exactly (block roles, slots, chunk indices).
type manifest struct {
	Type      core.DSType
	NumSlots  int
	ChunkSize int
	Entries   []manifestEntry
}

// manifestEntry pairs a flushed block's role with its snapshot key.
type manifestEntry struct {
	Chunk int
	Slots []ds.SlotRange
	Key   string
}

// autoFlushKey is where lease expiry flushes a prefix.
func autoFlushKey(path core.Path) string { return "jiffy-flush/" + string(path) }

// FlushPrefix implements flushAddrPrefix (§4.1): snapshot every block
// of the prefix into the persistent store under externalPath. Data
// stays in memory; this is a checkpoint, not a reclaim.
func (c *Controller) FlushPrefix(path core.Path, externalPath string) (int, error) {
	count := 0
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		var cnt int
		cnt, err = c.flushLocked(n, externalPath)
		count = cnt
		if err == nil {
			c.commitNodeLocked(n.Job, n)
		}
		return err
	})
	return count, err
}

// flushLocked writes a node's blocks and manifest to the persistent
// store. Caller holds the shard lock.
func (c *Controller) flushLocked(n *hierarchy.Node, externalPath string) (int, error) {
	if externalPath == "" {
		externalPath = autoFlushKey(n.CanonicalPath())
	}
	m := manifest{
		Type:      n.Map.Type,
		NumSlots:  n.Map.NumSlots,
		ChunkSize: n.Map.ChunkSize,
	}
	for i, e := range n.Map.Blocks {
		key := fmt.Sprintf("%s/block-%d", externalPath, i)
		// Flush from the read target — under chain replication the
		// tail holds only fully propagated writes.
		if err := c.flushBlockOnServer(e.ReadTarget(), key); err != nil {
			return i, err
		}
		m.Entries = append(m.Entries, manifestEntry{Chunk: e.Chunk, Slots: e.Slots, Key: key})
		c.flushBlocks.Add(1)
	}
	data, err := codec.Marshal(m)
	if err != nil {
		return len(m.Entries), err
	}
	if err := c.persist.Put(externalPath+"/manifest", data); err != nil {
		return len(m.Entries), err
	}
	n.FlushKey = externalPath
	return len(m.Entries), nil
}

// LoadPrefix implements loadAddrPrefix (§4.1): rebuild the prefix's
// blocks from a flushed snapshot, allocating fresh memory.
func (c *Controller) LoadPrefix(path core.Path, externalPath string) (proto.LoadPrefixResp, error) {
	var resp proto.LoadPrefixResp
	err := c.withJob(path.Job(), func(h *hierarchy.Hierarchy) error {
		n, err := h.Resolve(path)
		if err != nil {
			return err
		}
		if err := c.loadLocked(n, externalPath); err != nil {
			return err
		}
		c.commitNodeLocked(n.Job, n)
		resp.Map = n.Map.Clone()
		return nil
	})
	return resp, err
}

// loadLocked restores a node's data from the persistent store,
// replacing any current blocks. Caller holds the shard lock.
func (c *Controller) loadLocked(n *hierarchy.Node, externalPath string) error {
	if externalPath == "" {
		externalPath = n.FlushKey
	}
	if externalPath == "" {
		externalPath = autoFlushKey(n.CanonicalPath())
	}
	data, err := c.persist.Get(externalPath + "/manifest")
	if err != nil {
		return fmt.Errorf("controller: load %q: %w", externalPath, err)
	}
	var m manifest
	if err := codec.Unmarshal(data, &m); err != nil {
		return err
	}
	chains, err := c.allocateChains(len(m.Entries))
	if err != nil {
		return err
	}
	// Release any blocks the prefix still holds before replacing them.
	c.releaseBlocksLocked(n)

	newMap := ds.PartitionMap{
		Type:      m.Type,
		Epoch:     n.Map.Epoch + 1,
		NumSlots:  m.NumSlots,
		ChunkSize: m.ChunkSize,
	}
	path := n.CanonicalPath()
	freeAll := func() {
		for _, chain := range chains {
			c.alloc.Free(chain)
		}
	}
	for i, me := range m.Entries {
		chain := chains[i]
		if err := c.createChainOnServers(chain, path, m.Type, me.Chunk, me.Slots); err != nil {
			freeAll()
			return err
		}
		// Restore every replica from the same snapshot.
		for _, member := range chain {
			if err := c.loadBlockOnServer(member, me.Key); err != nil {
				freeAll()
				return err
			}
		}
		newMap.Blocks = append(newMap.Blocks, entryFor(chain, me.Chunk, me.Slots))
	}
	// Re-link restored queue segments.
	if m.Type == core.DSQueue {
		for i := 0; i+1 < len(newMap.Blocks); i++ {
			if err := c.setNextOnChain(newMap.Blocks[i], newMap.Blocks[i+1].Info); err != nil {
				return err
			}
		}
	}
	n.Map = newMap
	n.Flushed = false
	n.FlushKey = externalPath
	return nil
}
