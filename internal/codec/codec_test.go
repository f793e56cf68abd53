package codec_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"
	"time"

	"jiffy/internal/codec"
	"jiffy/internal/core"
	"jiffy/internal/ds"
	"jiffy/internal/proto"
)

// roundTrip encodes in, decodes into a fresh value of the same type,
// and checks both the value and the re-encoding.
func roundTrip[T any](t *testing.T, in T) T {
	t.Helper()
	data, err := codec.Marshal(in)
	if err != nil {
		t.Fatalf("marshal %T: %v", in, err)
	}
	var out T
	if err := codec.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal %T: %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("%T round trip:\n  in: %+v\n out: %+v", in, in, out)
	}
	re, err := codec.Marshal(out)
	if err != nil || !bytes.Equal(re, data) {
		t.Fatalf("%T re-encoding differs (%v):\n %x\n %x", in, err, data, re)
	}
	return out
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	type payload struct {
		Path   core.Path
		Blocks []core.BlockInfo
	}
	roundTrip(t, payload{
		Path:   core.MustPath("job", "T1"),
		Blocks: []core.BlockInfo{{ID: 1, Server: "a"}, {ID: 2, Server: "b"}},
	})
}

func sampleMap() ds.PartitionMap {
	chain := core.ReplicaChain{{ID: 7, Server: "10.0.0.1:9091"}, {ID: 9, Server: "10.0.0.2:9091"}}
	return ds.PartitionMap{
		Type: core.DSKV, Epoch: 12, NumSlots: 1024, MaxBlocks: 8,
		Blocks: []ds.PartitionEntry{
			{Info: chain[0], Slots: []ds.SlotRange{{Lo: 0, Hi: 511}}, Chain: chain},
			{Info: core.BlockInfo{ID: 3, Server: "s"}, Chunk: 1, Slots: []ds.SlotRange{{Lo: 512, Hi: 1023}}, Lost: true},
		},
	}
}

func TestProtoMessagesRoundTrip(t *testing.T) {
	roundTrip(t, proto.RenewLeaseReq{Paths: []core.Path{"job/a", "job/b"}})
	roundTrip(t, proto.RenewLeaseResp{Renewed: -3})
	roundTrip(t, proto.ReplicateReq{Block: 5, Op: core.OpPut, Args: [][]byte{[]byte("k"), []byte("v")},
		Chain: core.ReplicaChain{{ID: 5, Server: "a"}}, Seq: 1 << 40, Gen: 3})
	roundTrip(t, proto.OpenResp{Map: sampleMap(), LeaseDuration: time.Second, Probation: []string{"x"}})
	roundTrip(t, proto.CreatePrefixReq{Path: "j/t", Parents: []core.Path{"j/u"}, Type: core.DSQueue,
		InitialBlocks: 2, MaxBlocks: -1, LeaseDuration: -time.Minute})
	roundTrip(t, proto.CtrlReplicateReq{Gen: 2, Leader: "l", FirstSeq: 9, Ops: [][]byte{{1, 2}, {3}}})
	roundTrip(t, proto.SetTenantQuotaReq{Tenant: "t", Quota: core.Quota{OpsPerSec: 1.5, BytesPerSec: -0.25, MemoryBytes: 1 << 50, Weight: 4}})
	roundTrip(t, proto.ListPrefixesResp{Prefixes: []proto.PrefixInfo{
		{Path: "j", Type: core.DSNone, LastRenewed: time.Date(2024, 3, 1, 12, 0, 0, 5, time.UTC)},
		{Path: "j/t", Type: core.DSFile, Blocks: 2, UsedBytes: 10},
	}})
	roundTrip(t, proto.ImportEntriesReq{Block: 1, Ranges: []ds.SlotRange{{Lo: 1, Hi: 2}},
		Entries: []ds.KVEntry{{Key: "a", Value: []byte("1")}, {Key: "", Value: nil}}})
	roundTrip(t, proto.ReportFailureReq{Reporter: "a", Server: "b", Block: 1, Degraded: true})
	roundTrip(t, proto.CtrlRoleReq{})
}

func TestMapsEncodeSorted(t *testing.T) {
	type img struct{ Tenants map[string]core.Quota }
	a := img{Tenants: map[string]core.Quota{}}
	for _, k := range []string{"m", "a", "z", "q", "b"} {
		a.Tenants[k] = core.Quota{Weight: len(k)}
	}
	first, _ := codec.Marshal(a)
	for i := 0; i < 20; i++ {
		again, _ := codec.Marshal(a)
		if !bytes.Equal(first, again) {
			t.Fatal("map encoding depends on iteration order")
		}
	}
	roundTrip(t, a)
	roundTrip(t, map[uint64]string{3: "c", 1: "a", 1 << 60: "big"})
	roundTrip(t, map[int]bool{-5: true, 0: false, 7: true})
}

func TestEmptyCollectionsDecodeNil(t *testing.T) {
	type msg struct {
		B []byte
		S []string
		M map[string]int
	}
	data, err := codec.Marshal(msg{B: []byte{}, S: []string{}, M: map[string]int{}})
	if err != nil {
		t.Fatal(err)
	}
	out := msg{B: []byte("old"), S: []string{"old"}, M: map[string]int{"old": 1}}
	if err := codec.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.B != nil || out.S != nil || out.M != nil {
		t.Fatalf("empty collections decoded as %#v, want nils", out)
	}
}

func TestDecodeCopiesOutOfInput(t *testing.T) {
	data, err := codec.Marshal(proto.Notification{Block: 1, Op: core.OpEnqueue, Data: []byte("item")})
	if err != nil {
		t.Fatal(err)
	}
	var n proto.Notification
	if err := codec.Unmarshal(data, &n); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xff // the frame is recycled
	}
	if string(n.Data) != "item" {
		t.Fatalf("decoded bytes alias the input: %q", n.Data)
	}
	var kv proto.ExportSlotsResp
	data, _ = codec.Marshal(proto.ExportSlotsResp{Entries: []ds.KVEntry{{Key: "key", Value: []byte("val")}}})
	if err := codec.Unmarshal(data, &kv); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	if kv.Entries[0].Key != "key" || string(kv.Entries[0].Value) != "val" {
		t.Fatalf("decoded entry aliases the input: %+v", kv.Entries[0])
	}
}

func TestUnexportedFieldsSkipped(t *testing.T) {
	type withHidden struct {
		A      int
		hidden string
	}
	type plain struct{ A int }
	x, _ := codec.Marshal(withHidden{A: 4, hidden: "secret"})
	y, _ := codec.Marshal(plain{A: 4})
	if !bytes.Equal(x, y) {
		t.Fatalf("unexported field changed the encoding: %x vs %x", x, y)
	}
	out := withHidden{hidden: "kept"}
	if err := codec.Unmarshal(y, &out); err != nil || out.A != 4 || out.hidden != "kept" {
		t.Fatalf("decode = %+v, %v", out, err)
	}
}

func TestTimes(t *testing.T) {
	type stamped struct{ At time.Time }
	roundTrip(t, stamped{})
	roundTrip(t, stamped{At: time.Date(2023, 1, 2, 3, 4, 5, 6, time.UTC)})
	// Zones travel as offsets and monotonic readings are dropped, as
	// under gob.
	var out stamped
	for _, at := range []time.Time{time.Now(), time.Date(2023, 1, 2, 3, 4, 5, 6, time.FixedZone("x", 5400))} {
		data, _ := codec.Marshal(stamped{At: at})
		if err := codec.Unmarshal(data, &out); err != nil || !out.At.Equal(at) {
			t.Fatalf("%v round trip = %v, %v", at, out.At, err)
		}
		if _, off := out.At.Zone(); off != func() int { _, o := at.Zone(); return o }() {
			t.Fatalf("%v lost its zone offset: %v", at, out.At)
		}
	}
	// A MarshalBinary encoding of the zero time is non-canonical (the
	// codec writes the zero time as length 0).
	raw, _ := time.Time{}.MarshalBinary()
	bad, _ := codec.Marshal(stamped{})
	bad = append(bad[:len(bad)-1], byte(len(raw)))
	bad = append(bad, raw...)
	if err := codec.Unmarshal(bad, &out); !errors.Is(err, codec.ErrMalformed) {
		t.Fatalf("non-canonical zero time: %v", err)
	}
}

func TestRejects(t *testing.T) {
	good, err := codec.Marshal(proto.RenewLeaseReq{Paths: []core.Path{"job/t"}})
	if err != nil {
		t.Fatal(err)
	}
	var req proto.RenewLeaseReq
	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 0),
		// Another type's schema: RenewLeaseResp{Renewed int}.
		"other type": func() []byte { b, _ := codec.Marshal(proto.RenewLeaseResp{Renewed: 1}); return b }(),
		// A count larger than the bytes that remain.
		"huge count": append(append([]byte(nil), good[:4]...), 0xff, 0xff, 0xff, 0xff, 0x0f),
		// Count 1 written as a two-byte varint.
		"non-minimal varint": append(append([]byte(nil), good[:4]...), append([]byte{0x81, 0x00}, good[5:]...)...),
	}
	for name, in := range cases {
		if err := codec.Unmarshal(in, &req); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}

	type flag struct{ On bool }
	b, _ := codec.Marshal(flag{On: true})
	b[len(b)-1] = 2
	if err := codec.Unmarshal(b, &flag{}); !errors.Is(err, codec.ErrMalformed) {
		t.Errorf("bool byte 2: %v", err)
	}

	type wide struct{ N uint64 }
	type narrow struct{ N uint8 }
	w, _ := codec.Marshal(wide{N: 300})
	fp, _ := codec.Marshal(narrow{})
	copy(w, fp[:4]) // same field name, narrower kind: splice the fingerprint
	if err := codec.Unmarshal(w, &narrow{}); err == nil {
		t.Error("uint8 field accepted 300")
	}

	m, _ := codec.Marshal(map[string]int{"a": 1, "b": 2})
	// Swap the two entries: keys must be strictly ascending.
	swapped := append(append(append([]byte(nil), m[:5]...), m[8:11]...), m[5:8]...)
	if err := codec.Unmarshal(swapped, &map[string]int{}); !errors.Is(err, codec.ErrMalformed) {
		t.Errorf("unsorted map keys: %v", err)
	}
}

func TestUnsupportedTypes(t *testing.T) {
	type node struct {
		Next []node
	}
	for _, v := range []any{struct{ P *int }{}, struct{ I any }{}, node{}, struct{ F float32 }{}, []struct{ x int }{}} {
		if _, err := codec.Marshal(v); err == nil {
			t.Errorf("%T: marshal succeeded", v)
		}
	}
	if err := codec.Unmarshal([]byte{0, 0, 0, 0}, proto.RenewLeaseReq{}); err == nil {
		t.Error("unmarshal into a non-pointer succeeded")
	}
}

// FuzzDecode hardens the decoder over representative control messages:
// the first byte picks the message type, the rest is the encoding.
// Decoding must never panic, and anything accepted must re-encode to
// exactly the input.
func FuzzDecode(f *testing.F) {
	msgs := fuzzTypes()
	for i, m := range msgs {
		data, err := codec.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(i)}, data...))
		f.Add(append([]byte{byte(i)}, data[:len(data)/2]...))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1<<12 {
			return
		}
		typ := reflect.TypeOf(msgs[int(in[0])%len(msgs)])
		data := in[1:]
		ptr := reflect.New(typ)
		if err := codec.Unmarshal(data, ptr.Interface()); err != nil {
			if !errors.Is(err, codec.ErrMalformed) {
				t.Fatalf("rejection not classified as ErrMalformed: %v", err)
			}
			return
		}
		re, err := codec.Marshal(ptr.Interface())
		if err != nil {
			t.Fatalf("re-encode of accepted %s: %v", typ, err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %s re-encodes differently:\n   in: %x\n  out: %x", typ, data, re)
		}
	})
}

// fuzzTypes lists the fuzzed message types by sample value.
func fuzzTypes() []any {
	return []any{
		proto.ReplicateReq{Block: 1, Op: core.OpPut, Args: [][]byte{[]byte("k"), []byte("v")},
			Chain: core.ReplicaChain{{ID: 1, Server: "a"}, {ID: 2, Server: "b"}}, Seq: 7, Gen: 1},
		proto.OpenResp{Map: sampleMap(), LeaseDuration: time.Second, Probation: []string{"p"}},
		proto.RenewLeaseReq{Paths: []core.Path{"j/a"}},
		proto.CtrlReplicateReq{Gen: 1, Leader: "l", FirstSeq: 1, Ops: [][]byte{{1}}},
		proto.ListPrefixesResp{Prefixes: []proto.PrefixInfo{{Path: "j", LastRenewed: time.Unix(1e9, 0).UTC()}}},
		proto.SetTenantQuotaReq{Tenant: "t", Quota: core.Quota{OpsPerSec: 10, Weight: 1}},
		proto.CreateBlockReq{Block: 1, Path: "j/t", Type: core.DSKV, Capacity: 64, NumSlots: 16,
			Slots: []ds.SlotRange{{Lo: 0, Hi: 15}}},
		proto.Notification{Block: 1, Op: core.OpEnqueue, Data: []byte("x")},
		struct {
			Tenants map[string]core.Quota
			On      bool
		}{Tenants: map[string]core.Quota{"a": {Weight: 1}}, On: true},
	}
}

// BenchmarkCodec measures one encode plus decode of the messages on
// the prefix-lifecycle and chain-forward paths, with gob (the codec
// these messages used before) as the reference.
func BenchmarkCodec(b *testing.B) {
	msgs := map[string]func() any{
		"RenewLeaseReq": func() any { return &proto.RenewLeaseReq{} },
		"ReplicateReq":  func() any { return &proto.ReplicateReq{} },
		"OpenResp":      func() any { return &proto.OpenResp{} },
	}
	samples := map[string]any{
		"RenewLeaseReq": proto.RenewLeaseReq{Paths: []core.Path{"bench/prefix-000042"}},
		"ReplicateReq": proto.ReplicateReq{Block: 12, Op: core.OpPut, Args: [][]byte{[]byte("key-0042"), make([]byte, 64)},
			Chain: core.ReplicaChain{{ID: 12, Server: "127.0.0.1:9091"}, {ID: 40, Server: "127.0.0.1:9092"}}, Seq: 99, Gen: 2},
		"OpenResp": proto.OpenResp{Map: sampleMap(), LeaseDuration: time.Second},
	}
	for name, v := range samples {
		b.Run(name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = codec.Append(buf[:0], v)
				if err := codec.Unmarshal(buf, msgs[name]()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/gob", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(v); err != nil {
					b.Fatal(err)
				}
				if err := gob.NewDecoder(&buf).Decode(msgs[name]()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFingerprintLayout pins the frame layout: a little-endian 32-bit
// fingerprint, then the fields.
func TestFingerprintLayout(t *testing.T) {
	a, _ := codec.Marshal(proto.HeartbeatResp{Epoch: 300})
	if len(a) != 4+2 || !bytes.Equal(a[4:], binary.AppendUvarint(nil, 300)) {
		t.Fatalf("HeartbeatResp{300} = %x", a)
	}
	b, _ := codec.Marshal(proto.CtrlPromoteResp{Gen: 300})
	if bytes.Equal(a[:4], b[:4]) {
		t.Fatal("differently named fields share a fingerprint")
	}
}
