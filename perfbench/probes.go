package main

import (
	"fmt"
	"strconv"
	"time"

	"jiffy/internal/alloc"
	"jiffy/internal/blockstore"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/hierarchy"
)

// probes are standalone timings of single modules, outside any
// cluster: the floor under the end-to-end op times.
type probes struct {
	kvPutNs, kvGetNs, fileAppendNs, queueEnqDeqNs float64
	hierarchyNs, allocNs                          float64
}

// probeRounds is how many times each probe runs; the median counts.
const probeRounds = 5

// timeOp returns the median over probeRounds of the mean time per
// iteration of body, which runs n iterations per round.
func timeOp(n int, body func(n int) error) (float64, error) {
	rounds := make([]float64, probeRounds)
	for k := range rounds {
		t0 := time.Now()
		if err := body(n); err != nil {
			return 0, err
		}
		rounds[k] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(rounds), nil
}

// storeWith returns a standalone store holding one block of the given
// partition.
func storeWith(p ds.Partition) *blockstore.Store {
	s := blockstore.NewStore(core.DefaultHighThreshold, core.DefaultLowThreshold, nil)
	s.Create(&blockstore.Block{ID: 1, Path: core.MustPath("probe", "p"), Partition: p})
	return s
}

// runProbes times Store.Apply on each built-in structure, a hierarchy
// create-renew-remove cycle and an allocator allocate-free cycle.
// n scales the iteration counts.
func runProbes(n int) (probes, error) {
	var p probes
	var err error
	const keys = 1024
	keyNames := make([][]byte, keys)
	for i := range keyNames {
		keyNames[i] = []byte(kvKey(i))
	}
	value := make([]byte, kvValueSize)

	kvStore := storeWith(ds.NewKV(4*core.MB, 64, []ds.SlotRange{{Lo: 0, Hi: 63}}))
	if p.kvPutNs, err = timeOp(n, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := kvStore.Apply(1, core.OpPut, [][]byte{keyNames[i%keys], value}); err != nil {
				return fmt.Errorf("kv put probe: %w", err)
			}
		}
		return nil
	}); err != nil {
		return p, err
	}
	if p.kvGetNs, err = timeOp(n, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := kvStore.Apply(1, core.OpGet, [][]byte{keyNames[i%keys]}); err != nil {
				return fmt.Errorf("kv get probe: %w", err)
			}
		}
		return nil
	}); err != nil {
		return p, err
	}

	// Appends of shuffle-record size; a fresh store per round keeps the
	// chunk from filling.
	record := make([]byte, 16)
	if p.fileAppendNs, err = timeOp(n, func(n int) error {
		s := storeWith(ds.NewFile(n*len(record) + core.KB))
		for i := 0; i < n; i++ {
			if _, err := s.Apply(1, core.OpFileAppend, [][]byte{record}); err != nil {
				return fmt.Errorf("file append probe: %w", err)
			}
		}
		return nil
	}); err != nil {
		return p, err
	}

	word := []byte("w1a2")
	qStore := storeWith(ds.NewQueue(core.MB))
	if p.queueEnqDeqNs, err = timeOp(n, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := qStore.Apply(1, core.OpEnqueue, [][]byte{word}); err != nil {
				return fmt.Errorf("enqueue probe: %w", err)
			}
			if _, err := qStore.Apply(1, core.OpDequeue, nil); err != nil {
				return fmt.Errorf("dequeue probe: %w", err)
			}
		}
		return nil
	}); err != nil {
		return p, err
	}

	now := time.Now()
	h := hierarchy.New("probe", time.Minute, now)
	stage := core.MustPath("probe", "stage")
	if _, err := h.Create(stage, nil, core.DSNone, time.Minute, now); err != nil {
		return p, fmt.Errorf("hierarchy probe: %w", err)
	}
	seq := 0
	if p.hierarchyNs, err = timeOp(n/4, func(n int) error {
		for i := 0; i < n; i++ {
			seq++
			name := "t" + strconv.Itoa(seq)
			path := stage.MustChild(name)
			if _, err := h.Create(path, nil, core.DSKV, time.Minute, now); err != nil {
				return fmt.Errorf("hierarchy probe create: %w", err)
			}
			if _, err := h.Renew(path, now); err != nil {
				return fmt.Errorf("hierarchy probe renew: %w", err)
			}
			if err := h.Remove(name); err != nil {
				return fmt.Errorf("hierarchy probe remove: %w", err)
			}
		}
		return nil
	}); err != nil {
		return p, err
	}

	a := alloc.New()
	for _, srv := range []string{"s0", "s1"} {
		if _, err := a.RegisterServer(srv, 256); err != nil {
			return p, fmt.Errorf("alloc probe: %w", err)
		}
	}
	if p.allocNs, err = timeOp(n, func(n int) error {
		for i := 0; i < n; i++ {
			blocks, err := a.Allocate(1)
			if err != nil {
				return fmt.Errorf("alloc probe: %w", err)
			}
			a.Free(blocks)
		}
		return nil
	}); err != nil {
		return p, err
	}
	return p, nil
}
