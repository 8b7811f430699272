// Package cdr implements the OMG Common Data Representation (CDR),
// the transfer syntax used by GIOP messages.
//
// CDR aligns every primitive value to its natural size relative to the
// start of the stream (the start of the GIOP message body counts as
// offset zero) and supports both big- and little-endian byte orders,
// selected by the sender and advertised in the GIOP header flags.
//
// The package provides an Encoder that appends values to a growing
// buffer and a Decoder that consumes values from a byte slice. Both
// track absolute stream offsets so alignment is computed exactly as the
// specification requires, even when an encoder starts at a non-zero
// offset (as it does when a request body follows a 12-byte GIOP
// header).
package cdr

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ByteOrder identifies the byte order of a CDR stream.
type ByteOrder byte

const (
	// BigEndian is the network byte order; GIOP flag bit 0 clear.
	BigEndian ByteOrder = 0
	// LittleEndian is the byte order of x86 hosts; GIOP flag bit 0 set.
	LittleEndian ByteOrder = 1
)

// NativeOrder is the byte order new encoders use by default. CORBA lets
// the sender marshal in its native order and the receiver swap only on
// mismatch; the paper's homogeneous-cluster fast path relies on this.
const NativeOrder = LittleEndian

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

// ErrShortBuffer is returned when a Decoder runs out of input.
var ErrShortBuffer = errors.New("cdr: short buffer")

// ErrBadString is returned for malformed CDR strings (missing or
// misplaced NUL terminator, or an impossible length).
var ErrBadString = errors.New("cdr: malformed string")

// maxSeqLen bounds sequence and string lengths accepted by the decoder
// so a corrupt or hostile length prefix cannot trigger a huge
// allocation. 1 GiB comfortably exceeds any block in the paper's
// 4 KiB..16 MiB sweep.
const maxSeqLen = 1 << 30

// Encoder marshals values into CDR form. The zero value is not ready
// for use; call NewEncoder.
type Encoder struct {
	buf   []byte
	base  int // absolute stream offset of buf[0]
	order ByteOrder
}

// NewEncoder returns an Encoder marshaling in the given byte order,
// with buf[0] lying at absolute stream offset base.
func NewEncoder(order ByteOrder, base int) *Encoder {
	return &Encoder{order: order, base: base}
}

// Reset empties the encoder for reuse, keeping its buffer capacity.
func (e *Encoder) Reset(order ByteOrder, base int) {
	e.ResetTo(e.buf, order, base)
}

// ResetTo is Reset onto caller storage: e appends from buf[0] on, so
// an encoder over a buffer that is large enough (a pooled object's
// scratch) allocates nothing. What e writes escapes to the heap, so a
// stack array passed here is moved there.
func (e *Encoder) ResetTo(buf []byte, order ByteOrder, base int) {
	e.buf = buf[:0]
	e.order = order
	e.base = base
}

// maxPooledEncoder bounds the capacity of buffers retained by the
// encoder pool so a single huge standard-path body cannot pin memory
// indefinitely; larger buffers are left to the garbage collector.
const maxPooledEncoder = 1 << 20

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a pooled Encoder reset to the given order and
// base. Pair with PutEncoder once the encoded bytes have been consumed
// (Bytes aliases the encoder's buffer, so the slice is dead after
// PutEncoder).
func GetEncoder(order ByteOrder, base int) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset(order, base)
	return e
}

// PutEncoder returns an encoder to the pool. The caller must not use
// the encoder, or any slice obtained from Bytes, afterwards.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledEncoder {
		return
	}
	encoderPool.Put(e)
}

// Order reports the encoder's byte order.
func (e *Encoder) Order() ByteOrder { return e.order }

// Bytes returns the encoded stream. The slice aliases the encoder's
// internal buffer and is invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far (excluding base).
func (e *Encoder) Len() int { return len(e.buf) }

// Offset returns the absolute stream offset of the next byte written.
func (e *Encoder) Offset() int { return e.base + len(e.buf) }

// Align pads the stream with zero bytes so the next write lands on a
// multiple of n (n must be a power of two no greater than 8).
func (e *Encoder) Align(n int) {
	off := e.Offset()
	pad := (n - off%n) % n
	for i := 0; i < pad; i++ {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a single octet (no alignment needed).
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBoolean appends a CDR boolean (one octet, 0 or 1).
func (e *Encoder) WriteBoolean(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteChar appends a CDR char (one octet, ISO 8859-1).
func (e *Encoder) WriteChar(v byte) { e.WriteOctet(v) }

// WriteUShort appends a CDR unsigned short, 2-aligned.
func (e *Encoder) WriteUShort(v uint16) {
	e.Align(2)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8))
	}
}

// WriteShort appends a CDR short, 2-aligned.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong appends a CDR unsigned long, 4-aligned.
func (e *Encoder) WriteULong(v uint32) {
	e.Align(4)
	if e.order == BigEndian {
		e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// WriteLong appends a CDR long, 4-aligned.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULongLong appends a CDR unsigned long long, 8-aligned.
func (e *Encoder) WriteULongLong(v uint64) {
	e.Align(8)
	if e.order == BigEndian {
		e.buf = append(e.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		e.buf = append(e.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// WriteLongLong appends a CDR long long, 8-aligned.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat appends a CDR IEEE-754 float, 4-aligned.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends a CDR IEEE-754 double, 8-aligned.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: a ulong length that includes the
// terminating NUL, the bytes, and the NUL.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq appends a sequence<octet>: ulong count then raw bytes.
func (e *Encoder) WriteOctetSeq(p []byte) {
	e.WriteULong(uint32(len(p)))
	e.buf = append(e.buf, p...)
}

// WriteRaw appends bytes with no count and no alignment. It is the
// low-level hook used by GIOP headers and by the standard (copying)
// marshal path of the ORB.
func (e *Encoder) WriteRaw(p []byte) { e.buf = append(e.buf, p...) }

// WriteEncapsulation appends a CDR encapsulation: a sequence<octet>
// whose first octet is the byte order of the encapsulated stream.
// build is called with a fresh encoder positioned at encapsulation
// offset 1 (per the spec, alignment inside an encapsulation restarts
// at the beginning of the encapsulated stream).
func (e *Encoder) WriteEncapsulation(order ByteOrder, build func(*Encoder)) {
	inner := NewEncoder(order, 1)
	build(inner)
	e.WriteULong(uint32(1 + len(inner.buf)))
	e.WriteOctet(byte(order))
	e.buf = append(e.buf, inner.buf...)
}

// Decoder unmarshals values from a CDR stream.
type Decoder struct {
	buf   []byte
	pos   int
	base  int // absolute stream offset of buf[0]
	order ByteOrder
}

// NewDecoder returns a Decoder reading buf in the given byte order,
// with buf[0] lying at absolute stream offset base.
func NewDecoder(order ByteOrder, base int, buf []byte) *Decoder {
	return &Decoder{order: order, base: base, buf: buf}
}

// Reset repoints the decoder at buf for reuse.
func (d *Decoder) Reset(order ByteOrder, base int, buf []byte) {
	d.buf = buf
	d.pos = 0
	d.base = base
	d.order = order
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled Decoder reading buf. Pair with
// PutDecoder once decoding is complete.
func GetDecoder(order ByteOrder, base int, buf []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(order, base, buf)
	return d
}

// PutDecoder returns a decoder to the pool, dropping its reference to
// the underlying buffer.
func PutDecoder(d *Decoder) {
	if d == nil {
		return
	}
	d.buf = nil
	decoderPool.Put(d)
}

// Order reports the decoder's byte order.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Offset returns the absolute stream offset of the next byte read.
func (d *Decoder) Offset() int { return d.base + d.pos }

// Pos returns the decoder's position within its buffer.
func (d *Decoder) Pos() int { return d.pos }

// Align skips padding so the next read lands on a multiple of n.
func (d *Decoder) Align(n int) error {
	off := d.Offset()
	pad := (n - off%n) % n
	if d.pos+pad > len(d.buf) {
		return ErrShortBuffer
	}
	d.pos += pad
	return nil
}

func (d *Decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return ErrShortBuffer
	}
	return nil
}

// ReadOctet consumes a single octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBoolean consumes a CDR boolean. Any nonzero octet is true, as
// tolerated by common ORBs.
func (d *Decoder) ReadBoolean() (bool, error) {
	v, err := d.ReadOctet()
	return v != 0, err
}

// ReadChar consumes a CDR char.
func (d *Decoder) ReadChar() (byte, error) { return d.ReadOctet() }

// ReadUShort consumes a 2-aligned CDR unsigned short.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.Align(2); err != nil {
		return 0, err
	}
	if err := d.need(2); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 2
	if d.order == BigEndian {
		return uint16(b[0])<<8 | uint16(b[1]), nil
	}
	return uint16(b[1])<<8 | uint16(b[0]), nil
}

// ReadShort consumes a 2-aligned CDR short.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong consumes a 4-aligned CDR unsigned long.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.Align(4); err != nil {
		return 0, err
	}
	if err := d.need(4); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 4
	if d.order == BigEndian {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
	}
	return uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0]), nil
}

// ReadLong consumes a 4-aligned CDR long.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong consumes an 8-aligned CDR unsigned long long.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.Align(8); err != nil {
		return 0, err
	}
	if err := d.need(8); err != nil {
		return 0, err
	}
	b := d.buf[d.pos:]
	d.pos += 8
	if d.order == BigEndian {
		return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
	}
	return uint64(b[7])<<56 | uint64(b[6])<<48 | uint64(b[5])<<40 | uint64(b[4])<<32 |
		uint64(b[3])<<24 | uint64(b[2])<<16 | uint64(b[1])<<8 | uint64(b[0]), nil
}

// ReadLongLong consumes an 8-aligned CDR long long.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat consumes a 4-aligned CDR float.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble consumes an 8-aligned CDR double.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString consumes a CDR string and returns it without the
// terminating NUL.
func (d *Decoder) ReadString() (string, error) {
	b, err := d.ReadStringView()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ReadStringView is ReadString without the copy: it returns the
// string's bytes (without the NUL) as a view aliasing the decoder's
// buffer, for a caller that compares or looks them up rather than
// keeping them.
func (d *Decoder) ReadStringView() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxSeqLen {
		return nil, fmt.Errorf("%w: length %d", ErrBadString, n)
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if b[n-1] != 0 {
		return nil, fmt.Errorf("%w: missing NUL", ErrBadString)
	}
	return b[: n-1 : n-1], nil
}

// ReadOctetSeq consumes a sequence<octet> and returns a copy of its
// contents.
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	b, err := d.ReadOctetSeqView()
	if err != nil {
		return nil, err
	}
	return clone(b), nil
}

// clone copies b into a fresh slice (non-nil, even when empty). Unlike
// make+copy it does not zero the new buffer before overwriting it,
// which at 1 MiB is a second pass over memory.
func clone(b []byte) []byte { return append([]byte{}, b...) }

// ReadOctetSeqView consumes a sequence<octet> and returns a view
// aliasing the decoder's buffer. This is the zero-copy read used by
// the deposit path; the caller must not outlive the buffer.
func (d *Decoder) ReadOctetSeqView() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n > maxSeqLen {
		return nil, fmt.Errorf("cdr: sequence length %d exceeds limit", n)
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// ReadRaw consumes exactly n bytes with no alignment and returns a view
// aliasing the decoder's buffer.
func (d *Decoder) ReadRaw(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("cdr: negative raw length %d", n)
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b, nil
}

// ReadEncapsulation consumes a CDR encapsulation and returns a Decoder
// positioned after the encapsulated stream's byte-order octet.
func (d *Decoder) ReadEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctetSeqView()
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("cdr: empty encapsulation")
	}
	order := ByteOrder(body[0] & 1)
	return NewDecoder(order, 1, body[1:]), nil
}
