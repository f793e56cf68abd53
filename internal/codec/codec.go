// Package codec is the binary encoding of every control-plane message:
// controller and memory-server RPC bodies, chain forwards, queue
// notifications, the controller's op-log and bootstrap images, and the
// checkpoints and flush manifests the controller persists.
//
// A message is its type's 4-byte schema fingerprint followed by the
// value, fields in declaration order:
//
//	bool             one byte, 0 or 1
//	intN             zigzag varint
//	uintN            varint
//	float64          8 bytes, little-endian IEEE 754 bits
//	string, []byte   varint length, then the bytes
//	[]T              varint count, then each element
//	map[K]V          varint count, then key/value pairs by ascending key
//	struct           its exported fields in declaration order
//	time.Time        varint length, then MarshalBinary (length 0: zero time)
//
// The reflection plan for a type is built once and cached. The decoder
// is strict, so any input it accepts re-encodes to the same bytes:
// varints must be minimal, bools 0 or 1, map keys strictly ascending,
// times canonical, and nothing may follow the value. Every length and
// count is bounded by the bytes that remain, so a corrupt message cannot
// make the decoder allocate far beyond its own size. The fingerprint
// hashes the field names and kinds of the whole type tree, so a message
// encoded from a differently shaped type is rejected rather than
// misread positionally. Decoded strings and byte slices never alias the
// input, which callers may recycle; empty slices and maps decode as nil.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrMalformed reports input the decoder refuses: truncated, trailing,
// non-canonical, or encoded from a type with another schema.
var ErrMalformed = errors.New("codec: malformed message")

// fingerprintLen is the size of the schema fingerprint prefix.
const fingerprintLen = 4

// Append encodes v (a value or a pointer to one) onto dst.
func Append(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return dst, errors.New("codec: marshal of nil pointer")
		}
		rv = rv.Elem()
	}
	if !rv.IsValid() {
		return dst, errors.New("codec: marshal of nil value")
	}
	p, err := planFor(rv.Type())
	if err != nil {
		return dst, err
	}
	dst = binary.LittleEndian.AppendUint32(dst, p.fp)
	return p.enc(dst, rv), nil
}

// Marshal encodes v into a new slice.
func Marshal(v any) ([]byte, error) { return Append(nil, v) }

// Unmarshal decodes data into the value v points to, replacing every
// exported field.
func Unmarshal(data []byte, v any) error {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("codec: unmarshal needs a non-nil pointer, got %T", v)
	}
	rv = rv.Elem()
	p, err := planFor(rv.Type())
	if err != nil {
		return err
	}
	if len(data) < fingerprintLen {
		return fmt.Errorf("%w: %d bytes is shorter than the fingerprint", ErrMalformed, len(data))
	}
	if fp := binary.LittleEndian.Uint32(data); fp != p.fp {
		return fmt.Errorf("%w: fingerprint %08x is not %s's %08x", ErrMalformed, fp, rv.Type(), p.fp)
	}
	d := decoder{buf: data, off: fingerprintLen}
	if err := p.dec(&d, rv); err != nil {
		return err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(d.buf)-d.off)
	}
	return nil
}

type encFn func(b []byte, v reflect.Value) []byte
type decFn func(d *decoder, v reflect.Value) error

// plan is one type's compiled codec.
type plan struct {
	fp  uint32
	enc encFn
	dec decFn
}

// plans caches one plan (or its build error) per top-level type.
var plans sync.Map // reflect.Type -> *planEntry

type planEntry struct {
	p   *plan
	err error
}

func planFor(t reflect.Type) (*plan, error) {
	if e, ok := plans.Load(t); ok {
		pe := e.(*planEntry)
		return pe.p, pe.err
	}
	b := builder{busy: map[reflect.Type]bool{}}
	var schema strings.Builder
	enc, dec, err := b.build(t, &schema)
	pe := &planEntry{}
	if err != nil {
		pe.err = fmt.Errorf("codec: %s: %w", t, err)
	} else {
		h := fnv.New32a()
		h.Write([]byte(schema.String()))
		pe.p = &plan{fp: h.Sum32(), enc: enc, dec: dec}
	}
	e, _ := plans.LoadOrStore(t, pe)
	pe = e.(*planEntry)
	return pe.p, pe.err
}

var timeType = reflect.TypeOf(time.Time{})

// builder compiles a type tree; busy detects recursive types, which
// control messages never need and a positional format cannot bound.
type builder struct {
	busy map[reflect.Type]bool
}

// build returns t's encoder and decoder and writes its schema
// (field names and kinds) to schema.
func (b *builder) build(t reflect.Type, schema *strings.Builder) (encFn, decFn, error) {
	if t == timeType {
		schema.WriteString("time")
		return encTime, decTime, nil
	}
	schema.WriteString(t.Kind().String())
	switch t.Kind() {
	case reflect.Bool:
		return encBool, decBool, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return encInt, decInt, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return encUint, decUint, nil
	case reflect.Float64:
		return encFloat, decFloat, nil
	case reflect.String:
		return encString, decString, nil
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			schema.WriteString("[]uint8")
			return encBytes, decBytes, nil
		}
		if zeroWidth(t.Elem()) {
			// Its count could not be bounded by the bytes that follow.
			return nil, nil, fmt.Errorf("slice of zero-width %s", t.Elem())
		}
		schema.WriteString("[")
		elemEnc, elemDec, err := b.build(t.Elem(), schema)
		if err != nil {
			return nil, nil, err
		}
		schema.WriteString("]")
		return sliceCodec(t, elemEnc, elemDec)
	case reflect.Map:
		schema.WriteString("[")
		keyEnc, keyDec, err := b.build(t.Key(), schema)
		if err != nil {
			return nil, nil, err
		}
		schema.WriteString("]")
		valEnc, valDec, err := b.build(t.Elem(), schema)
		if err != nil {
			return nil, nil, err
		}
		return mapCodec(t, keyEnc, keyDec, valEnc, valDec)
	case reflect.Struct:
		if b.busy[t] {
			return nil, nil, fmt.Errorf("recursive type %s", t)
		}
		b.busy[t] = true
		defer delete(b.busy, t)
		return b.structCodec(t, schema)
	}
	return nil, nil, fmt.Errorf("unsupported kind %s", t.Kind())
}

// zeroWidth reports whether t encodes to no bytes at all: a struct
// whose exported fields are all zero-width (or that has none).
func zeroWidth(t reflect.Type) bool {
	if t.Kind() != reflect.Struct || t == timeType {
		return false
	}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() && !zeroWidth(f.Type) {
			return false
		}
	}
	return true
}

type fieldCodec struct {
	index int
	enc   encFn
	dec   decFn
}

func (b *builder) structCodec(t reflect.Type, schema *strings.Builder) (encFn, decFn, error) {
	var fields []fieldCodec
	schema.WriteString("{")
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if !sf.IsExported() {
			continue
		}
		schema.WriteString(sf.Name)
		schema.WriteString(":")
		enc, dec, err := b.build(sf.Type, schema)
		if err != nil {
			return nil, nil, fmt.Errorf("field %s: %w", sf.Name, err)
		}
		schema.WriteString(";")
		fields = append(fields, fieldCodec{index: i, enc: enc, dec: dec})
	}
	schema.WriteString("}")
	enc := func(b []byte, v reflect.Value) []byte {
		for _, f := range fields {
			b = f.enc(b, v.Field(f.index))
		}
		return b
	}
	dec := func(d *decoder, v reflect.Value) error {
		for _, f := range fields {
			if err := f.dec(d, v.Field(f.index)); err != nil {
				return err
			}
		}
		return nil
	}
	return enc, dec, nil
}

func sliceCodec(t reflect.Type, elemEnc encFn, elemDec decFn) (encFn, decFn, error) {
	enc := func(b []byte, v reflect.Value) []byte {
		n := v.Len()
		b = binary.AppendUvarint(b, uint64(n))
		for i := 0; i < n; i++ {
			b = elemEnc(b, v.Index(i))
		}
		return b
	}
	dec := func(d *decoder, v reflect.Value) error {
		n, err := d.count()
		if err != nil {
			return err
		}
		if n == 0 {
			v.SetZero()
			return nil
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			if err := elemDec(d, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
		return nil
	}
	return enc, dec, nil
}

func mapCodec(t reflect.Type, keyEnc encFn, keyDec decFn, valEnc encFn, valDec decFn) (encFn, decFn, error) {
	var less func(a, b reflect.Value) bool
	switch t.Key().Kind() {
	case reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	default:
		return nil, nil, fmt.Errorf("unsupported map key kind %s", t.Key().Kind())
	}
	enc := func(b []byte, v reflect.Value) []byte {
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = keyEnc(b, k)
			b = valEnc(b, v.MapIndex(k))
		}
		return b
	}
	dec := func(d *decoder, v reflect.Value) error {
		n, err := d.count()
		if err != nil {
			return err
		}
		if n == 0 {
			v.SetZero()
			return nil
		}
		m := reflect.MakeMapWithSize(t, n)
		var prev reflect.Value
		for i := 0; i < n; i++ {
			k := reflect.New(t.Key()).Elem()
			if err := keyDec(d, k); err != nil {
				return err
			}
			if i > 0 && !less(prev, k) {
				return fmt.Errorf("%w: map keys out of order", ErrMalformed)
			}
			val := reflect.New(t.Elem()).Elem()
			if err := valDec(d, val); err != nil {
				return err
			}
			m.SetMapIndex(k, val)
			prev = k
		}
		v.Set(m)
		return nil
	}
	return enc, dec, nil
}

func encBool(b []byte, v reflect.Value) []byte {
	if v.Bool() {
		return append(b, 1)
	}
	return append(b, 0)
}

func decBool(d *decoder, v reflect.Value) error {
	if d.off >= len(d.buf) {
		return errTruncated
	}
	c := d.buf[d.off]
	if c > 1 {
		return fmt.Errorf("%w: bool byte %#x", ErrMalformed, c)
	}
	d.off++
	v.SetBool(c == 1)
	return nil
}

func encInt(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) }

func decInt(d *decoder, v reflect.Value) error {
	u, err := d.uvarint()
	if err != nil {
		return err
	}
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if v.OverflowInt(x) {
		return fmt.Errorf("%w: %d overflows %s", ErrMalformed, x, v.Type())
	}
	v.SetInt(x)
	return nil
}

func encUint(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) }

func decUint(d *decoder, v reflect.Value) error {
	x, err := d.uvarint()
	if err != nil {
		return err
	}
	if v.OverflowUint(x) {
		return fmt.Errorf("%w: %d overflows %s", ErrMalformed, x, v.Type())
	}
	v.SetUint(x)
	return nil
}

func encFloat(b []byte, v reflect.Value) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
}

func decFloat(d *decoder, v reflect.Value) error {
	if len(d.buf)-d.off < 8 {
		return errTruncated
	}
	v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:])))
	d.off += 8
	return nil
}

func encString(b []byte, v reflect.Value) []byte {
	s := v.String()
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func decString(d *decoder, v reflect.Value) error {
	raw, err := d.bytes()
	if err != nil {
		return err
	}
	v.SetString(string(raw))
	return nil
}

func encBytes(b []byte, v reflect.Value) []byte {
	raw := v.Bytes()
	b = binary.AppendUvarint(b, uint64(len(raw)))
	return append(b, raw...)
}

func decBytes(d *decoder, v reflect.Value) error {
	raw, err := d.bytes()
	if err != nil {
		return err
	}
	if len(raw) == 0 {
		v.SetZero()
		return nil
	}
	// Copy out: the input is typically a pooled frame that is recycled
	// as soon as decoding returns.
	v.SetBytes(append([]byte(nil), raw...))
	return nil
}

func encTime(b []byte, v reflect.Value) []byte { return appendTime(b, v.Interface().(time.Time)) }

func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	raw, err := t.MarshalBinary()
	if err != nil {
		// Only zone offsets that are not whole minutes (pre-1900 local
		// mean time) fail; such a time travels as UTC.
		raw, _ = t.UTC().MarshalBinary()
	}
	b = binary.AppendUvarint(b, uint64(len(raw)))
	return append(b, raw...)
}

func decTime(d *decoder, v reflect.Value) error {
	start := d.off
	raw, err := d.bytes()
	if err != nil {
		return err
	}
	var t time.Time
	if len(raw) > 0 {
		if err := t.UnmarshalBinary(raw); err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		// MarshalBinary has several encodings of one instant (format
		// versions, the zero time); accept only the one we emit.
		var scratch [32]byte
		if canon := appendTime(scratch[:0], t); string(canon) != string(d.buf[start:d.off]) {
			return fmt.Errorf("%w: non-canonical time", ErrMalformed)
		}
	}
	v.Set(reflect.ValueOf(t))
	return nil
}

var errTruncated = fmt.Errorf("%w: truncated", ErrMalformed)

// decoder walks one message.
type decoder struct {
	buf []byte
	off int
}

// uvarint reads a minimally encoded varint.
func (d *decoder) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.off >= len(d.buf) {
			return 0, errTruncated
		}
		c := d.buf[d.off]
		d.off++
		if c < 0x80 {
			if i > 0 && c == 0 {
				return 0, fmt.Errorf("%w: non-minimal varint", ErrMalformed)
			}
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
}

// count reads a length or element count, bounded by the bytes that
// remain: every string byte, slice element and map entry encodes to
// at least one byte (plans refuse zero-width slice elements), so a
// corrupt count fails here instead of sizing an allocation.
func (d *decoder) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.buf)-d.off) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrMalformed, n, len(d.buf)-d.off)
	}
	return int(n), nil
}

// bytes reads a length-prefixed byte run, aliasing the input.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	raw := d.buf[d.off : d.off+n]
	d.off += n
	return raw, nil
}
