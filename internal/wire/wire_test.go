package wire

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"jiffy/internal/core"
)

func framePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := framePair(t)
	want := &Frame{
		Kind:    KindRequest,
		Seq:     42,
		Method:  7,
		Code:    core.CodeOK,
		Payload: []byte("hello jiffy"),
	}
	errc := make(chan error, 1)
	go func() { errc <- ca.WriteFrame(want) }()
	got, err := cb.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Seq != want.Seq || got.Method != want.Method ||
		got.Code != want.Code || !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	ca, cb := framePair(t)
	go ca.WriteFrame(&Frame{Kind: KindResponse, Seq: 1})
	got, err := cb.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Errorf("payload = %v, want empty", got.Payload)
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(seq uint64, method uint16, code uint8, payload []byte) bool {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		ca, cb := NewConn(a), NewConn(b)
		in := &Frame{
			Kind: KindPush, Seq: seq, Method: method,
			Code: core.ErrorCode(code), Payload: payload,
		}
		go ca.WriteFrame(in)
		out, err := cb.ReadFrame()
		if err != nil {
			return false
		}
		return out.Seq == seq && out.Method == method &&
			out.Code == core.ErrorCode(code) && bytes.Equal(out.Payload, payload)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFrameInvalidKind(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Hand-craft a frame with kind 99.
		buf := []byte{0, 0, 0, 12, 99, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}
		a.Write(buf)
	}()
	if _, err := NewConn(b).ReadFrame(); err == nil {
		t.Error("invalid kind should fail")
	}
}

func TestFrameInvalidLength(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0, 0, 0, 1, 0, 0, 0, 0}) // length 1 < headerLen
	if _, err := NewConn(b).ReadFrame(); err == nil {
		t.Error("short frame length should fail")
	}
}

func TestConcurrentWrites(t *testing.T) {
	ca, cb := framePair(t)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f := &Frame{Kind: KindRequest, Seq: uint64(w*1000 + i), Payload: []byte{byte(w)}}
				if err := ca.WriteFrame(f); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < writers*perWriter; i++ {
		f, err := cb.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.Seq] {
			t.Fatalf("duplicate seq %d", f.Seq)
		}
		seen[f.Seq] = true
	}
	wg.Wait()
}

func TestMemTransport(t *testing.T) {
	l, err := Listen("mem://test-ep")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr().String() != "mem://test-ep" {
		t.Errorf("addr = %q", l.Addr())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		c := NewConn(conn)
		f, err := c.ReadFrame()
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		f.Kind = KindResponse
		c.WriteFrame(f)
	}()
	conn, err := Dial("mem://test-ep")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewConn(conn)
	if err := c.WriteFrame(&Frame{Kind: KindRequest, Seq: 5, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindResponse || resp.Seq != 5 {
		t.Errorf("resp = %+v", resp)
	}
	<-done
}

func TestMemTransportDuplicateName(t *testing.T) {
	l, err := Listen("mem://dup")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := Listen("mem://dup"); err == nil {
		t.Error("duplicate endpoint should fail")
	}
}

func TestMemTransportDialUnknown(t *testing.T) {
	if _, err := Dial("mem://nope"); err == nil {
		t.Error("dialing unknown endpoint should fail")
	}
}

func TestMemTransportClosedListener(t *testing.T) {
	l, err := Listen("mem://closing")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Dial("mem://closing"); err == nil {
		t.Error("dialing closed endpoint should fail")
	}
	if _, err := l.Accept(); err == nil {
		t.Error("accept on closed listener should fail")
	}
	// Name is free for reuse after close.
	l2, err := Listen("mem://closing")
	if err != nil {
		t.Fatalf("reuse after close: %v", err)
	}
	l2.Close()
}

func TestTCPTransport(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("TCP unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		c := NewConn(conn)
		if f, err := c.ReadFrame(); err == nil {
			c.WriteFrame(&Frame{Kind: KindResponse, Seq: f.Seq})
		}
	}()
	conn, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := NewConn(conn)
	if err := c.WriteFrame(&Frame{Kind: KindRequest, Seq: 9}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 9 {
		t.Errorf("seq = %d", resp.Seq)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	a, _ := net.Pipe()
	defer a.Close()
	c := NewConn(a)
	f := &Frame{Kind: KindRequest, Payload: make([]byte, MaxFrameSize)}
	if err := c.WriteFrame(f); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestConnCloseIdempotent(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(a)
	err1 := c.Close()
	err2 := c.Close()
	if !errors.Is(err2, err1) && err1 != err2 {
		t.Errorf("close errors differ: %v vs %v", err1, err2)
	}
}

// TestReadFrameRobustAgainstGarbage feeds random byte streams into the
// frame reader: it must either parse frames or fail cleanly — never
// panic, never over-allocate (length fields are bounded), never hang.
func TestReadFrameRobustAgainstGarbage(t *testing.T) {
	f := func(garbage []byte) bool {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			a.Write(garbage)
			a.Close()
		}()
		c := NewConn(b)
		for i := 0; i < 100; i++ { // bounded frames per input
			if _, err := c.ReadFrame(); err != nil {
				return true // clean termination
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestReadFrameHugeLengthRejected: a length prefix above MaxFrameSize
// must be rejected before any allocation attempt.
func TestReadFrameHugeLengthRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewConn(b).ReadFrame(); err == nil {
		t.Error("4GB frame length accepted")
	}
}

// TestTraceExtRoundTrip covers the trace-extension payload codec and
// its forward/backward compatibility contract.
func TestTraceExtRoundTrip(t *testing.T) {
	p := EncodeTraceExt(0x1122334455667788, 0x99aabbccddeeff00)
	tr, sp, ok := DecodeTraceExt(p)
	if !ok || tr != 0x1122334455667788 || sp != 0x99aabbccddeeff00 {
		t.Fatalf("round trip: %x %x %v", tr, sp, ok)
	}
	// Trailing bytes are ignored (future versions may append fields).
	if tr, sp, ok = DecodeTraceExt(append(p, 1, 2, 3)); !ok || tr != 0x1122334455667788 || sp != 0x99aabbccddeeff00 {
		t.Fatal("trailing bytes must be ignored")
	}
	// Truncated or version-skewed payloads are rejected cleanly.
	if _, _, ok = DecodeTraceExt(p[:10]); ok {
		t.Fatal("truncated payload accepted")
	}
	bad := append([]byte(nil), p...)
	bad[0] = 2
	if _, _, ok = DecodeTraceExt(bad); ok {
		t.Fatal("unknown version accepted")
	}
	// A trace-ext frame survives the frame codec.
	f := &Frame{Kind: KindTraceExt, Seq: 7, Payload: p}
	c := fuzzConn(AppendFrame(nil, f))
	out, err := c.ReadFrame()
	if err != nil || out.Kind != KindTraceExt || out.Seq != 7 {
		t.Fatalf("trace-ext frame: %+v, %v", out, err)
	}
}
