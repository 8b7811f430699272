// Bulk fast paths for fixed-layout primitive runs.
//
// The general interpreter (internal/typecode) and the compiled
// marshalers emitted by idlgen both funnel arrays and sequences of
// fixed-width primitives through these helpers: one alignment step,
// one bounds check, and then either a single copy (when the stream's
// byte order matches the host's — the homogeneous-platform case the
// paper's bypass exploits) or an unrolled byteswap loop (the
// heterogeneous fallback). Element alignment is preserved exactly as
// the per-element Write*/Read* calls would produce it: aligning the
// first element to its natural size aligns every subsequent element
// too, so the wire bytes are identical to the interpreted form.
package cdr

import (
	"encoding/binary"
	"unsafe"
)

// hostOrder is the byte order of this machine, detected once at init.
// Streams in hostOrder take the single-copy path; the other order pays
// a per-element swap.
var hostOrder = func() ByteOrder {
	x := uint16(0x0102)
	if *(*byte)(unsafe.Pointer(&x)) == 0x02 {
		return LittleEndian
	}
	return BigEndian
}()

// HostOrder reports the byte order of this machine.
func HostOrder() ByteOrder { return hostOrder }

// grow extends the encoder's buffer by n zeroed bytes and returns the
// slice covering them, so bulk writers fill in place instead of
// appending element by element.
func (e *Encoder) grow(n int) []byte {
	l := len(e.buf)
	if cap(e.buf)-l < n {
		nb := make([]byte, l, l+n+l/2)
		copy(nb, e.buf)
		e.buf = nb
	}
	e.buf = e.buf[: l+n : cap(e.buf)]
	return e.buf[l : l+n]
}

// WriteOctetRun appends raw octets with no count prefix (the elements
// of an octet array, or of a sequence whose count is already written).
func (e *Encoder) WriteOctetRun(p []byte) { e.buf = append(e.buf, p...) }

// ReadOctetRun consumes exactly n octets and returns a copy.
func (d *Decoder) ReadOctetRun(n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrShortBuffer
	}
	if err := d.need(n); err != nil {
		return nil, err
	}
	out := clone(d.buf[d.pos : d.pos+n])
	d.pos += n
	return out, nil
}

// asBytes views a primitive slice as its raw bytes (host layout).
func asBytes[T uint16 | uint32 | uint64 | int16 | int32 | int64 | float32 | float64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// WriteUShortRun appends the elements of a []uint16 run, 2-aligned.
func (e *Encoder) WriteUShortRun(v []uint16) {
	if len(v) == 0 {
		return // a zero-length run writes nothing, not even padding
	}
	e.Align(2)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(2 * len(v))
	if e.order == BigEndian {
		for i, x := range v {
			binary.BigEndian.PutUint16(b[2*i:], x)
		}
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint16(b[2*i:], x)
		}
	}
}

// WriteShortRun appends the elements of an []int16 run, 2-aligned.
func (e *Encoder) WriteShortRun(v []int16) {
	if len(v) == 0 {
		return
	}
	e.Align(2)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(2 * len(v))
	if e.order == BigEndian {
		for i, x := range v {
			binary.BigEndian.PutUint16(b[2*i:], uint16(x))
		}
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(x))
		}
	}
}

// WriteULongRun appends the elements of a []uint32 run, 4-aligned.
func (e *Encoder) WriteULongRun(v []uint32) {
	if len(v) == 0 {
		return
	}
	e.Align(4)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(4 * len(v))
	if e.order == BigEndian {
		for i, x := range v {
			binary.BigEndian.PutUint32(b[4*i:], x)
		}
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[4*i:], x)
		}
	}
}

// WriteLongRun appends the elements of an []int32 run, 4-aligned.
func (e *Encoder) WriteLongRun(v []int32) {
	if len(v) == 0 {
		return
	}
	e.Align(4)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(4 * len(v))
	if e.order == BigEndian {
		for i, x := range v {
			binary.BigEndian.PutUint32(b[4*i:], uint32(x))
		}
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
	}
}

// WriteULongLongRun appends the elements of a []uint64 run, 8-aligned.
func (e *Encoder) WriteULongLongRun(v []uint64) {
	if len(v) == 0 {
		return
	}
	e.Align(8)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(8 * len(v))
	if e.order == BigEndian {
		for i, x := range v {
			binary.BigEndian.PutUint64(b[8*i:], x)
		}
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
	}
}

// WriteLongLongRun appends the elements of an []int64 run, 8-aligned.
func (e *Encoder) WriteLongLongRun(v []int64) {
	if len(v) == 0 {
		return
	}
	e.Align(8)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(8 * len(v))
	if e.order == BigEndian {
		for i, x := range v {
			binary.BigEndian.PutUint64(b[8*i:], uint64(x))
		}
	} else {
		for i, x := range v {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
		}
	}
}

// WriteFloatRun appends the elements of a []float32 run, 4-aligned.
func (e *Encoder) WriteFloatRun(v []float32) {
	if len(v) == 0 {
		return
	}
	e.Align(4)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(4 * len(v))
	bits := asBytes(v)
	// Swap the host-layout words into the stream order.
	for i := 0; i < len(v); i++ {
		b[4*i+0], b[4*i+1], b[4*i+2], b[4*i+3] =
			bits[4*i+3], bits[4*i+2], bits[4*i+1], bits[4*i+0]
	}
}

// WriteDoubleRun appends the elements of a []float64 run, 8-aligned.
func (e *Encoder) WriteDoubleRun(v []float64) {
	if len(v) == 0 {
		return
	}
	e.Align(8)
	if e.order == hostOrder {
		e.buf = append(e.buf, asBytes(v)...)
		return
	}
	b := e.grow(8 * len(v))
	bits := asBytes(v)
	for i := 0; i < len(v); i++ {
		for j := 0; j < 8; j++ {
			b[8*i+j] = bits[8*i+7-j]
		}
	}
}

// bulkRead aligns to size, checks that n elements of size bytes are
// available, and returns the raw view. A nil view with nil error means
// n == 0.
func (d *Decoder) bulkRead(n, size int) ([]byte, error) {
	if n < 0 || n > maxSeqLen {
		return nil, ErrShortBuffer
	}
	if n == 0 {
		return nil, nil // zero-length runs consume nothing, not even padding
	}
	if err := d.Align(size); err != nil {
		return nil, err
	}
	total := n * size
	if err := d.need(total); err != nil {
		return nil, err
	}
	b := d.buf[d.pos : d.pos+total]
	d.pos += total
	return b, nil
}

// ReadUShortRun consumes n 2-aligned uint16 elements.
func (d *Decoder) ReadUShortRun(n int) ([]uint16, error) {
	b, err := d.bulkRead(n, 2)
	if err != nil {
		return nil, err
	}
	out := make([]uint16, n)
	if d.order == hostOrder {
		copy(asBytes(out), b)
	} else if d.order == BigEndian {
		for i := range out {
			out[i] = binary.BigEndian.Uint16(b[2*i:])
		}
	} else {
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
	}
	return out, nil
}

// ReadShortRun consumes n 2-aligned int16 elements.
func (d *Decoder) ReadShortRun(n int) ([]int16, error) {
	b, err := d.bulkRead(n, 2)
	if err != nil {
		return nil, err
	}
	out := make([]int16, n)
	if d.order == hostOrder {
		copy(asBytes(out), b)
	} else if d.order == BigEndian {
		for i := range out {
			out[i] = int16(binary.BigEndian.Uint16(b[2*i:]))
		}
	} else {
		for i := range out {
			out[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
		}
	}
	return out, nil
}

// ReadULongRun consumes n 4-aligned uint32 elements.
func (d *Decoder) ReadULongRun(n int) ([]uint32, error) {
	b, err := d.bulkRead(n, 4)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	if d.order == hostOrder {
		copy(asBytes(out), b)
	} else if d.order == BigEndian {
		for i := range out {
			out[i] = binary.BigEndian.Uint32(b[4*i:])
		}
	} else {
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}
	return out, nil
}

// ReadLongRun consumes n 4-aligned int32 elements.
func (d *Decoder) ReadLongRun(n int) ([]int32, error) {
	b, err := d.bulkRead(n, 4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	if d.order == hostOrder {
		copy(asBytes(out), b)
	} else if d.order == BigEndian {
		for i := range out {
			out[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
		}
	} else {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	}
	return out, nil
}

// ReadULongLongRun consumes n 8-aligned uint64 elements.
func (d *Decoder) ReadULongLongRun(n int) ([]uint64, error) {
	b, err := d.bulkRead(n, 8)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	if d.order == hostOrder {
		copy(asBytes(out), b)
	} else if d.order == BigEndian {
		for i := range out {
			out[i] = binary.BigEndian.Uint64(b[8*i:])
		}
	} else {
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
	}
	return out, nil
}

// ReadLongLongRun consumes n 8-aligned int64 elements.
func (d *Decoder) ReadLongLongRun(n int) ([]int64, error) {
	b, err := d.bulkRead(n, 8)
	if err != nil {
		return nil, err
	}
	out := make([]int64, n)
	if d.order == hostOrder {
		copy(asBytes(out), b)
	} else if d.order == BigEndian {
		for i := range out {
			out[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
		}
	} else {
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return out, nil
}

// ReadFloatRun consumes n 4-aligned float32 elements.
func (d *Decoder) ReadFloatRun(n int) ([]float32, error) {
	b, err := d.bulkRead(n, 4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	ob := asBytes(out)
	if d.order == hostOrder {
		copy(ob, b)
	} else {
		for i := 0; i < n; i++ {
			ob[4*i+0], ob[4*i+1], ob[4*i+2], ob[4*i+3] =
				b[4*i+3], b[4*i+2], b[4*i+1], b[4*i+0]
		}
	}
	return out, nil
}

// ReadDoubleRun consumes n 8-aligned float64 elements.
func (d *Decoder) ReadDoubleRun(n int) ([]float64, error) {
	b, err := d.bulkRead(n, 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	ob := asBytes(out)
	if d.order == hostOrder {
		copy(ob, b)
	} else {
		for i := 0; i < n; i++ {
			for j := 0; j < 8; j++ {
				ob[8*i+j] = b[8*i+7-j]
			}
		}
	}
	return out, nil
}
