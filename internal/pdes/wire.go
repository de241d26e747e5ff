package pdes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"

	"govhdl/internal/vtime"
)

// The wire codec: everything package transport puts on a connection, every
// cut blob (cut.go) and the body of a checkpoint file (package ckptio) is
// written by a WireEncoder and read back by a WireDecoder. Both are plain
// byte-slice cursors — no reflection, no type descriptors on the stream, no
// global registration order — and the decoder is bounded: every length and
// count is checked against the bytes that remain in the input before
// anything is allocated, and value nesting is capped at wireMaxDepth.
//
// Integers are uvarints (zigzag varints where negative values are legal),
// float64s are 8 raw little-endian bytes so modeled clocks cross bit-exact,
// slices are a count followed by the elements, where count 0 means nil and
// n+1 means n elements, so nil and empty survive the trip as what they were.
//
// Event payloads (Event.Data and whatever the payload types nest) go through
// the tagged value encoding below; wire_msg.go holds the Msg/Event layout.

// wireMaxDepth bounds how deep values may nest (an updateMsg's Value inside an
// Event's Data is depth 2). Both sides enforce it, so the encoder never emits
// a frame the decoder refuses.
const wireMaxDepth = 8

// Value tags are allocated by range, so packages register at their own init
// without knowing each other: pdes owns 0–15, kernel 16–31, vhdl 32–47;
// applications and tests take 128 and up. A duplicate tag or type panics at
// init.
const (
	wireNil    = 0
	wireFalse  = 1
	wireTrue   = 2
	wireInt    = 3
	wireInt64  = 4
	wireUint64 = 5
	wireTime   = 6 // vtime.Time
)

// wireValue is one row of the tag table.
type wireValue struct {
	tag byte
	enc func(*WireEncoder, any)
	dec func(*WireDecoder) any
}

var (
	wireByTag  [256]*wireValue
	wireByType = map[reflect.Type]*wireValue{}
)

// RegisterWireValue adds a payload type to the tag table: values with
// sample's dynamic type are written as tag followed by whatever enc appends,
// and dec must consume exactly that. Call it from the init of the package
// that owns the type; the table is read-only once main starts.
func RegisterWireValue(tag byte, sample any, enc func(*WireEncoder, any), dec func(*WireDecoder) any) {
	t := reflect.TypeOf(sample)
	if wireByTag[tag] != nil || wireByType[t] != nil || tag <= wireTrue {
		panic(fmt.Sprintf("pdes: wire tag %d or type %v registered twice", tag, t))
	}
	wv := &wireValue{tag: tag, enc: enc, dec: dec}
	wireByTag[tag], wireByType[t] = wv, wv
}

func init() {
	RegisterWireValue(wireInt, int(0),
		func(e *WireEncoder, v any) { e.Varint(int64(v.(int))) },
		func(d *WireDecoder) any { return int(d.Varint()) })
	RegisterWireValue(wireInt64, int64(0),
		func(e *WireEncoder, v any) { e.Varint(v.(int64)) },
		func(d *WireDecoder) any { return d.Varint() })
	RegisterWireValue(wireUint64, uint64(0),
		func(e *WireEncoder, v any) { e.Uvarint(v.(uint64)) },
		func(d *WireDecoder) any { return d.Uvarint() })
	RegisterWireValue(wireTime, vtime.Time(0),
		func(e *WireEncoder, v any) { e.Uvarint(uint64(v.(vtime.Time))) },
		func(d *WireDecoder) any { return vtime.Time(d.Uvarint()) })
}

// WireEncoder appends to B. Only Value can fail (a type with no tag, or
// nesting past wireMaxDepth); the first failure sticks and whoever drives the
// encoder (EncodeMsg, encodeBlob, ckptio) reports it, so codecs need no error
// plumbing.
type WireEncoder struct {
	B     []byte
	depth int
	err   error
}

// Reset empties the buffer (keeping its capacity) and clears the error.
func (e *WireEncoder) Reset() { e.B, e.depth, e.err = e.B[:0], 0, nil }

// Err reports the first Value failure.
func (e *WireEncoder) Err() error { return e.err }

func (e *WireEncoder) Byte(v byte)      { e.B = append(e.B, v) }
func (e *WireEncoder) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *WireEncoder) Varint(v int64)   { e.B = binary.AppendVarint(e.B, v) }
func (e *WireEncoder) Float(v float64) {
	e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(v))
}

func (e *WireEncoder) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// LP writes an LP id shifted by one, so NoLP (-1) is the single byte 0.
func (e *WireEncoder) LP(id LPID) { e.Uvarint(uint64(uint32(id + 1))) }

func (e *WireEncoder) VT(t vtime.VT) {
	e.Uvarint(uint64(t.PT))
	e.Uvarint(t.LT)
}

// Count writes a slice header: 0 for a nil slice, n+1 for n elements.
func (e *WireEncoder) Count(n int, isNil bool) {
	if isNil {
		e.B = append(e.B, 0)
		return
	}
	e.Uvarint(uint64(n) + 1)
}

// Bytes writes p opaquely, nil and empty kept apart.
func (e *WireEncoder) Bytes(p []byte) {
	e.Count(len(p), p == nil)
	e.B = append(e.B, p...)
}

func (e *WireEncoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Value writes v in the tagged encoding.
func (e *WireEncoder) Value(v any) {
	switch x := v.(type) {
	case nil:
		e.B = append(e.B, wireNil)
		return
	case bool:
		if x {
			e.B = append(e.B, wireTrue)
		} else {
			e.B = append(e.B, wireFalse)
		}
		return
	}
	wv := wireByType[reflect.TypeOf(v)]
	switch {
	case e.err != nil:
	case wv == nil:
		e.err = fmt.Errorf("payload of type %T has no wire encoding (see pdes.RegisterWireValue)", v)
	case e.depth >= wireMaxDepth:
		e.err = fmt.Errorf("payload nests deeper than %d values at a %T", wireMaxDepth, v)
	default:
		e.B = append(e.B, wv.tag)
		e.depth++
		wv.enc(e, v)
		e.depth--
	}
}

var (
	errWireShort = errors.New("pdes: wire: truncated input")
	errWireRange = errors.New("pdes: wire: value out of range")
)

// WireDecoder reads what a WireEncoder wrote. The first failure sticks:
// every later read returns zero and consumes nothing, so a codec reads its
// fields straight through and the caller checks Err once. Nothing returned
// aliases the input.
type WireDecoder struct {
	buf   []byte
	off   int
	depth int
	err   error
}

// Reset points the decoder at b, which must stay unmodified until decoding
// ends, and clears the error.
func (d *WireDecoder) Reset(b []byte) { *d = WireDecoder{buf: b} }

// Err reports the first decoding failure.
func (d *WireDecoder) Err() error { return d.err }

// Len is the number of unread bytes.
func (d *WireDecoder) Len() int { return len(d.buf) - d.off }

// fail records err as the decoding failure unless one is already recorded.
func (d *WireDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *WireDecoder) Byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail(errWireShort)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *WireDecoder) Bool() bool {
	v := d.Byte()
	if v > 1 {
		d.fail(errWireRange)
	}
	return v == 1
}

func (d *WireDecoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errWireShort)
		return 0
	}
	d.off += n
	return v
}

func (d *WireDecoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(errWireShort)
		return 0
	}
	d.off += n
	return v
}

// Int reads a varint that must fit a platform int32 — endpoint and worker
// indices, which index tables on the receiving side.
func (d *WireDecoder) Int() int {
	v := d.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail(errWireRange)
		return 0
	}
	return int(v)
}

func (d *WireDecoder) Float() float64 {
	if d.err != nil || d.Len() < 8 {
		d.fail(errWireShort)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

func (d *WireDecoder) LP() LPID {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.fail(errWireRange)
		return 0
	}
	return LPID(uint32(v)) - 1
}

func (d *WireDecoder) VT() vtime.VT {
	return vtime.VT{PT: vtime.Time(d.Uvarint()), LT: d.Uvarint()}
}

// Count reads a slice header written by WireEncoder.Count for elements that
// occupy at least elemMin bytes each, and fails unless that many bytes are
// still unread — the check that keeps a hostile count from sizing an
// allocation. ok is false for a nil slice (and after a failure).
func (d *WireDecoder) Count(elemMin int) (n int, ok bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, false
	}
	v--
	if v > uint64(d.Len()/elemMin) {
		d.fail(errWireShort)
		return 0, false
	}
	return int(v), true
}

func (d *WireDecoder) Bytes() []byte {
	n, ok := d.Count(1)
	if !ok {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.buf[d.off:])
	d.off += n
	return p
}

func (d *WireDecoder) String() string {
	n := d.Uvarint()
	if n > uint64(d.Len()) {
		d.fail(errWireShort)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Value reads one tagged value.
func (d *WireDecoder) Value() any {
	tag := d.Byte()
	switch tag {
	case wireNil:
		return nil
	case wireFalse:
		return false
	case wireTrue:
		return true
	}
	wv := wireByTag[tag]
	switch {
	case d.err != nil:
	case wv == nil:
		d.fail(fmt.Errorf("pdes: wire: unknown value tag %d", tag))
	case d.depth >= wireMaxDepth:
		d.fail(fmt.Errorf("pdes: wire: values nest deeper than %d", wireMaxDepth))
	default:
		d.depth++
		v := wv.dec(d)
		d.depth--
		if d.err == nil {
			return v
		}
	}
	return nil
}
