package controller

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
)

// FuzzManifestDecode hardens the flush-manifest codec: a manifest read
// back from the persist tier during LoadPrefix or chain repair is
// attacker-distance data (a corrupted or truncated object store entry),
// so decoding must never panic, and anything the decoder accepts must
// re-encode to the very bytes it was decoded from — otherwise repair
// could rebuild a prefix from a manifest that no flush could have
// written. The committed corpus holds manifests written by the gob
// codec of older builds; they must be rejected, never misread.
func FuzzManifestDecode(f *testing.F) {
	valid, err := codec.Marshal(manifest{
		Type:      core.DSKV,
		NumSlots:  16,
		ChunkSize: 4096,
		Entries: []manifestEntry{
			{Chunk: 0, Slots: []ds.SlotRange{{Lo: 0, Hi: 7}}, Key: "jiffy-flush/j/t/block-0"},
			{Chunk: 1, Slots: []ds.SlotRange{{Lo: 8, Hi: 15}}, Key: "jiffy-flush/j/t/block-1"},
		},
	})
	if err != nil {
		f.Fatalf("marshal seed manifest: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a manifest"))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound decoder allocations, not codec behavior
		}
		var m manifest
		if err := codec.Unmarshal(data, &m); err != nil {
			return // rejection is fine; panicking is not
		}
		re, err := codec.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal of accepted manifest failed: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted manifest re-encodes differently:\n   in: %x\n  out: %x", data, re)
		}
	})
}

// TestLegacyManifestRejected feeds the committed corpus — manifests
// the gob codec of older builds wrote — to the decoder: a manifest
// from another codec is refused, never decoded into a wrong layout.
func TestLegacyManifestRejected(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzManifestDecode/seed-*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(paths))
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var m manifest
		if err := codec.Unmarshal([]byte(data), &m); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s: decode = %v, want ErrMalformed", filepath.Base(p), err)
		}
	}
}
