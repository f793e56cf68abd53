package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jiffy"
	"jiffy/internal/core"
)

// kvZipf runs closed-loop callers issuing 90% Get and 10% Put with
// 128-byte values over Zipf-distributed keys, against a KV on 2
// servers over mem:// with 2-long chains. The KV is created with
// enough blocks that nothing repartitions while it is measured.
//
// Values encode their key and a version. Each key is written by one
// caller only (the key's low bit names it), which keeps a per-key
// version window: a Get must return a version at least as new as the
// last Put that completed before it started and no newer than the last
// Put that started before it ended.
type kvZipf struct {
	seed    int64
	keys    int
	callers int
	warm    int64
	drives  atomic.Int64

	// Per key: the newest version whose Put has started, and the newest
	// whose Put has returned.
	started, done []atomic.Uint64
}

const (
	kvPath       = core.Path("kvz/table")
	kvValueSize  = 128
	kvPutPercent = 10
)

func newKVZipf(seed int64, scale float64) *kvZipf {
	keys := scaled(4096, scale) &^ 1 // even, so every key has an owner
	return &kvZipf{
		seed:    seed,
		keys:    max(keys, 16),
		callers: min(2, runtime.NumCPU()),
		warm:    int64(scaled(4000, scale)),
	}
}

func (w *kvZipf) shape() shape {
	return shape{unitSeries: "kv.get", spanSeries: []string{"kv.get", "kv.put"}, writeSeries: "kv.put", unitTailQ: 99, writeTailQ: 99,
		unitName: "op", warm: w.warm, callers: w.callers}
}

func kvKey(i int) string { return fmt.Sprintf("k%06d", i) }

// kvValue is the value of key i at version v: its key and version,
// then filler derived from both.
func kvValue(i int, v uint64) []byte {
	b := make([]byte, kvValueSize)
	n := copy(b, fmt.Sprintf("%s:%010d:", kvKey(i), v))
	fill := byte('a' + (uint64(i)*31+v)%26)
	for j := n; j < len(b); j++ {
		b[j] = fill
	}
	return b
}

// kvVersion parses and validates a value of key i, returning its
// version.
func kvVersion(i int, val []byte) (uint64, error) {
	var v uint64
	prefix := kvKey(i) + ":"
	if !bytes.HasPrefix(val, []byte(prefix)) {
		return 0, fmt.Errorf("value %.24q does not belong to key %s", val, kvKey(i))
	}
	if _, err := fmt.Sscanf(string(val[len(prefix):len(prefix)+10]), "%d", &v); err != nil {
		return 0, fmt.Errorf("value %.24q: bad version: %v", val, err)
	}
	if !bytes.Equal(val, kvValue(i, v)) {
		return 0, fmt.Errorf("value of %s at version %d is corrupt", kvKey(i), v)
	}
	return v, nil
}

func (w *kvZipf) setup(ctx context.Context) (*env, error) {
	cfg := baseConfig()
	cfg.ChainLength = 2
	e, err := boot(ctx, jiffy.ClusterOptions{Config: cfg, Servers: 2, BlocksPerServer: 256})
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	if err := e.client.RegisterJob(ctx, kvPath.Job()); err != nil {
		return fail(fmt.Errorf("register kv job: %w", err))
	}
	// Fill blocks to about a third, far from the 95% split threshold:
	// puts overwrite same-sized values, so usage never grows.
	perKey := len(kvKey(0)) + kvValueSize + 32
	blocks := max(2, w.keys*perKey*3/cfg.BlockSize)
	if _, _, err := e.client.CreatePrefix(ctx, kvPath, nil, core.DSKV, blocks, 0); err != nil {
		return fail(fmt.Errorf("create kv: %w", err))
	}
	kv, err := e.client.OpenKV(ctx, kvPath)
	if err != nil {
		return fail(fmt.Errorf("open kv: %w", err))
	}
	w.started = make([]atomic.Uint64, w.keys)
	w.done = make([]atomic.Uint64, w.keys)
	const batch = 256
	for lo := 0; lo < w.keys; lo += batch {
		var pairs []jiffy.KVPair
		for i := lo; i < min(lo+batch, w.keys); i++ {
			pairs = append(pairs, jiffy.KVPair{Key: kvKey(i), Value: kvValue(i, 0)})
		}
		if err := kv.MultiPut(ctx, pairs); err != nil {
			return fail(fmt.Errorf("preload: %w", err))
		}
	}
	if err := warmUp(ctx, w, e); err != nil {
		return fail(err)
	}
	return e, nil
}

func (w *kvZipf) drive(ctx context.Context, e *env, c *jiffy.Client, b budget, r *recorder) error {
	kv, err := c.OpenKV(ctx, kvPath)
	if err != nil {
		return fmt.Errorf("open kv: %w", err)
	}
	d := w.drives.Add(1)
	var wg sync.WaitGroup
	for caller := 0; caller < w.callers; caller++ {
		// Each caller spends its own share of a unit budget, so the
		// measured loop shares no counter between the callers' cores.
		cb := b
		if b.units > 0 {
			cb.units = max(1, (b.units+int64(w.callers-1-caller))/int64(w.callers))
		}
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			w.caller(ctx, kv, caller, rand.New(rand.NewSource(w.seed*1_000_003+d*101+int64(caller))), cb, r)
		}(caller)
	}
	wg.Wait()
	return nil
}

// caller is one closed-loop client: it issues its next op as soon as
// the previous one returns.
func (w *kvZipf) caller(ctx context.Context, kv *jiffy.KV, caller int, rng *rand.Rand,
	b budget, r *recorder) {

	z := rand.NewZipf(rng, zipfS, 1, uint64(w.keys-1))
	var gets, puts series
	var ops, failed, unpublished int64
	for n := int64(0); !b.done(n); n++ {
		i := int(z.Uint64())
		octx, trace := r.spans.newTrace(ctx)
		if rng.Intn(100) < kvPutPercent {
			i = i&^1 | caller // keys with this caller's low bit are its own
			v := w.started[i].Load() + 1
			w.started[i].Store(v)
			t0 := time.Now()
			err := kv.Put(octx, kvKey(i), kvValue(i, v))
			dt := time.Since(t0)
			if err != nil {
				failed++
				r.fail(fmt.Errorf("put %s: %w", kvKey(i), err))
				continue
			}
			w.done[i].Store(v)
			puts.add(dt)
			r.spans.record(layerUnit, trace, t0, dt)
			r.spans.record(layerCall, trace, t0, dt)
		} else {
			lo := w.done[i].Load()
			t0 := time.Now()
			val, err := kv.Get(octx, kvKey(i))
			dt := time.Since(t0)
			hi := w.started[i].Load()
			if err != nil {
				failed++
				r.fail(fmt.Errorf("get %s: %w", kvKey(i), err))
				continue
			}
			gets.add(dt)
			r.spans.record(layerUnit, trace, t0, dt)
			r.spans.record(layerCall, trace, t0, dt)
			if v, err := kvVersion(i, val); err != nil {
				r.violation("get: %v", err)
			} else if v < lo || v > hi {
				r.violation("get %s returned version %d, want within [%d, %d]", kvKey(i), v, lo, hi)
			}
		}
		ops++
		// Publish progress in batches: items_per_s samples it while
		// the callers run, and a shared counter per op would bounce
		// between the callers' cores.
		if unpublished++; unpublished == 64 {
			r.units.Add(unpublished)
			r.items.Add(unpublished)
			unpublished = 0
		}
	}
	r.attempted.Add(ops + failed)
	r.units.Add(unpublished)
	r.items.Add(unpublished)
	r.extend("kv.get", gets)
	r.extend("kv.put", puts)
}

// finish reads every key back: each must hold the last version written.
func (w *kvZipf) finish(ctx context.Context, e *env, r *recorder) error {
	kv, err := e.client.OpenKV(ctx, kvPath)
	if err != nil {
		return fmt.Errorf("open kv: %w", err)
	}
	keys := make([]string, w.keys)
	for i := range keys {
		keys[i] = kvKey(i)
	}
	vals, err := kv.MultiGet(ctx, keys)
	if err != nil {
		return fmt.Errorf("read back: %w", err)
	}
	for i, val := range vals {
		v, err := kvVersion(i, val)
		if err != nil {
			r.violation("read back: %v", err)
		} else if want := w.done[i].Load(); v != want {
			r.violation("read back %s: version %d, want %d", kvKey(i), v, want)
		}
	}
	return nil
}

func (w *kvZipf) layers(r *recorder, e *env) []Metric {
	var used float64
	for _, srv := range e.cl.Servers {
		used += scrapeOf(srv.Obs())["jiffy_store_used_bytes"]
	}
	user := float64(w.keys * (len(kvKey(0)) + kvValueSize))
	return []Metric{{Name: "blockstore.used_bytes_per_user_byte", Value: ratio(used, user), Unit: "ratio", N: w.keys}}
}

func (w *kvZipf) storeNs(p probes) float64 {
	return (float64(100-kvPutPercent)*p.kvGetNs + float64(kvPutPercent)*p.kvPutNs) / 100
}
