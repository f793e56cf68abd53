package controller

import (
	"fmt"
	"sort"
	"time"

	"jiffy/internal/alloc"
	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
)

// Controller state checkpointing. The paper adopts primary-backup
// fault tolerance for the control plane (§4.2.1, citing ZooKeeper-style
// mechanisms); the building block either way is a serializable image of
// the controller's two pieces of system-wide state — the free block
// list and the per-job address hierarchies. SaveState writes that image
// to the persistent store; a fresh controller started with RestoreState
// resumes serving the same jobs, whose data still lives untouched on
// the memory servers.

// stateImage is the serialized controller state.
type stateImage struct {
	SavedAt time.Time
	// Allocator state.
	Servers []serverImage
	NextID  core.BlockID
	// Jobs' hierarchies.
	Jobs []jobImage
}

type serverImage struct {
	Addr   string
	Total  int
	FreeID []core.BlockID
}

type jobImage struct {
	Job   core.JobID
	Nodes []nodeImage
}

// nodeImage serializes one hierarchy node; parents are recorded by
// name, and nodes are emitted parents-before-children so restoration
// can rebuild edges in one pass.
type nodeImage struct {
	Name          string
	Parents       []string
	LeaseDuration time.Duration
	LastRenewed   time.Time
	Type          core.DSType
	Map           ds.PartitionMap
	Flushed       bool
	FlushKey      string
	Quota         core.Quota
}

// SaveState checkpoints the controller's metadata into the persistent
// store under key.
func (c *Controller) SaveState(key string) error {
	img := stateImage{SavedAt: c.clk.Now()}

	// Allocator state.
	servers, nextID := c.alloc.Snapshot()
	for _, s := range servers {
		img.Servers = append(img.Servers, serverImage{
			Addr: s.Addr, Total: s.Total, FreeID: s.Free,
		})
	}
	img.NextID = nextID

	// Hierarchies, shard by shard.
	for _, sh := range c.shards {
		sh.mu.Lock()
		jobs := make([]core.JobID, 0, len(sh.jobs))
		for j := range sh.jobs {
			jobs = append(jobs, j)
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i] < jobs[j] })
		for _, j := range jobs {
			img.Jobs = append(img.Jobs, dumpJob(j, sh.jobs[j]))
		}
		sh.mu.Unlock()
	}

	data, err := codec.Marshal(img)
	if err != nil {
		return err
	}
	return c.persist.Put(key, data)
}

// dumpJob serializes one hierarchy strictly parents-before-children
// (topological order — plain DFS is not enough, since a multi-parent
// node can be reached before all of its parents have been visited).
func dumpJob(job core.JobID, h *hierarchy.Hierarchy) jobImage {
	img := jobImage{Job: job}
	// Root sentinel first: restore re-creates it via hierarchy.New.
	root := h.Root()
	img.Nodes = append(img.Nodes, nodeImage{
		Name:          root.Name,
		LeaseDuration: root.LeaseDuration,
		LastRenewed:   root.LastRenewed,
		Quota:         root.Quota,
	})

	// Collect the remaining nodes and their parent edges.
	var all []*hierarchy.Node
	h.Walk(func(n *hierarchy.Node) bool {
		if n != root {
			all = append(all, n)
		}
		return true
	})
	emitted := map[string]bool{root.Name: true}
	for len(all) > 0 {
		progressed := false
		rest := all[:0]
		for _, n := range all {
			ready := true
			var parents []string
			for _, p := range n.Parents() {
				parents = append(parents, p.Name)
				if !emitted[p.Name] {
					ready = false
				}
			}
			if !ready {
				rest = append(rest, n)
				continue
			}
			img.Nodes = append(img.Nodes, nodeImage{
				Name:          n.Name,
				Parents:       parents,
				LeaseDuration: n.LeaseDuration,
				LastRenewed:   n.LastRenewed,
				Type:          n.Type,
				Map:           n.Map.Clone(),
				Flushed:       n.Flushed,
				FlushKey:      n.FlushKey,
				Quota:         n.Quota,
			})
			emitted[n.Name] = true
			progressed = true
		}
		all = rest
		if !progressed {
			// A cycle would be a hierarchy invariant violation; emit
			// nothing further rather than looping forever.
			break
		}
	}
	return img
}

// RestoreState rebuilds the controller's metadata from a checkpoint.
// Must be called on a fresh controller (no registered jobs); the memory
// servers referenced by the image must still hold their blocks.
func (c *Controller) RestoreState(key string) error {
	data, err := c.persist.Get(key)
	if err != nil {
		return fmt.Errorf("controller: restore %q: %w", key, err)
	}
	var img stateImage
	if err := codec.Unmarshal(data, &img); err != nil {
		return err
	}

	// Allocator.
	servers := make([]alloc.ServerState, 0, len(img.Servers))
	for _, s := range img.Servers {
		servers = append(servers, alloc.ServerState{Addr: s.Addr, Total: s.Total, Free: s.FreeID})
	}
	c.alloc.Restore(servers, img.NextID)

	// Hierarchies.
	for _, ji := range img.Jobs {
		sh := c.shardFor(ji.Job)
		sh.mu.Lock()
		if _, exists := sh.jobs[ji.Job]; exists {
			sh.mu.Unlock()
			return fmt.Errorf("controller: job %q already present: %w", ji.Job, core.ErrExists)
		}
		h, err := restoreJob(ji, c.clk.Now())
		if err != nil {
			sh.mu.Unlock()
			return err
		}
		sh.jobs[ji.Job] = h
		sh.mu.Unlock()
	}
	return nil
}

func restoreJob(img jobImage, now time.Time) (*hierarchy.Hierarchy, error) {
	if len(img.Nodes) == 0 {
		return nil, fmt.Errorf("controller: empty job image for %q", img.Job)
	}
	root := img.Nodes[0]
	h := hierarchy.New(img.Job, root.LeaseDuration, now)
	h.Root().LastRenewed = root.LastRenewed
	h.Root().Quota = root.Quota
	for _, ni := range img.Nodes[1:] {
		// Resolve the primary parent's canonical path; extra parents
		// become DAG edges.
		if len(ni.Parents) == 0 {
			return nil, fmt.Errorf("controller: node %q has no parents in image", ni.Name)
		}
		first, ok := h.Lookup(ni.Parents[0])
		if !ok {
			return nil, fmt.Errorf("controller: image parent %q missing (order broken)", ni.Parents[0])
		}
		var extra []core.Path
		for _, p := range ni.Parents[1:] {
			pn, ok := h.Lookup(p)
			if !ok {
				return nil, fmt.Errorf("controller: image parent %q missing", p)
			}
			extra = append(extra, pn.CanonicalPath())
		}
		n, err := h.Create(first.CanonicalPath().MustChild(ni.Name), extra,
			ni.Type, ni.LeaseDuration, now)
		if err != nil {
			return nil, err
		}
		n.LastRenewed = ni.LastRenewed
		n.Map = ni.Map
		n.Flushed = ni.Flushed
		n.FlushKey = ni.FlushKey
		n.Quota = ni.Quota
	}
	return h, nil
}
