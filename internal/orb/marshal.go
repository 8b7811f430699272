package orb

import (
	"fmt"

	"zcorba/internal/cdr"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// This file implements the split marshal path of §4.4: values whose
// type is a ZC octet stream are diverted into the deposit train as
// payload segments (direct deposit), everything else goes through the
// general CDR interpreter into the GIOP body. The standard path's
// octet-stream copies are charged to Stats so experiments can assert
// the zero-copy property instead of taking it on faith.

// bulkBytes extracts the raw bytes of a bulk value, accepting the
// pooled buffer form, a plain byte slice, and (reading the region into
// memory) a file-backed payload. A typed nil buffer or file is not a
// bulk value.
func bulkBytes(v any) ([]byte, bool) {
	switch x := v.(type) {
	case *zcbuf.Buffer:
		if x != nil {
			return x.Bytes(), true
		}
	case []byte:
		return x, true
	case *zcbuf.File:
		if x != nil {
			if b, err := x.Bytes(); err == nil {
				return b, true
			}
		}
	}
	return nil, false
}

// errNotZC reports a value that cannot travel as ZC octet stream
// parameter i: a wrong type, or a typed nil buffer or file.
func errNotZC(i int, v any) error {
	return fmt.Errorf("orb: parameter %d: %T is nil or not a ZC octet stream", i, v)
}

// collectDeposits gathers the payload segments for every ZC octet
// stream among vals — by reference, never copying (the marshaling
// bypass of §4.4). It performs no CDR work at all; file-backed
// payloads stay on disk here. ok reports whether every ZC value is
// deposit-eligible: a zero-length ZC value returns ok=false (segs and
// sizes nil), because the wire protocol forbids zero-length deposit
// blocks — the caller must marshal the whole call instead. The results
// are appended to segs[:0] and sizes[:0], the caller's storage.
func collectDeposits(types []*typecode.TypeCode, vals []any, segs []transport.Segment,
	sizes []uint32) ([]transport.Segment, []uint32, bool, error) {
	segs, sizes = segs[:0], sizes[:0]
	for i, tc := range types {
		if !tc.IsZCOctetSeq() {
			continue
		}
		switch x := vals[i].(type) {
		case *zcbuf.Buffer:
			if x == nil {
				return nil, nil, false, errNotZC(i, x)
			}
			segs = append(segs, transport.Segment{B: x.Bytes()})
			sizes = append(sizes, uint32(x.Len()))
		case []byte:
			segs = append(segs, transport.Segment{B: x})
			sizes = append(sizes, uint32(len(x)))
		case *zcbuf.File:
			if x == nil {
				return nil, nil, false, errNotZC(i, x)
			}
			segs = append(segs, transport.Segment{File: x.OS(), Off: x.Offset(), N: x.Len()})
			sizes = append(sizes, uint32(x.Len()))
		default:
			return nil, nil, false, errNotZC(i, vals[i])
		}
		if sizes[len(sizes)-1] == 0 {
			return nil, nil, false, nil
		}
	}
	return segs, sizes, true, nil
}

// marshalValues writes vals (described by types) onto e. When skipZC
// is true, ZC octet streams are omitted from the body (they travel as
// deposits); when false they fall back to the standard copying path
// (counted in Stats.ZCFallbacks).
func (o *ORB) marshalValues(e *cdr.Encoder, types []*typecode.TypeCode, vals []any,
	skipZC bool) error {
	if len(types) != len(vals) {
		return fmt.Errorf("orb: %d values for %d parameters", len(vals), len(types))
	}
	for i, tc := range types {
		v := vals[i]
		if tc.IsZCOctetSeq() {
			if skipZC {
				continue
			}
			b, ok := bulkBytes(v)
			if !ok {
				return errNotZC(i, v)
			}
			o.stats.ZCFallbacks.Add(1)
			v = b
		}
		if isBulk(tc) {
			if b, ok := bulkBytes(v); ok {
				o.stats.PayloadCopies.Add(1)
				o.stats.PayloadCopyBytes.Add(int64(len(b)))
				v = b
			}
		}
		// Compiled fast path: generated types write themselves without
		// the typecode walk. Values in the generic []any form (dynamic
		// callers) don't implement the interface and take the
		// interpreter.
		if m, ok := v.(CDRMarshaler); ok {
			if err := m.MarshalCDR(e); err != nil {
				return fmt.Errorf("orb: parameter %d: %w", i, err)
			}
			continue
		}
		if err := typecode.MarshalValue(e, tc, v); err != nil {
			return fmt.Errorf("orb: parameter %d: %w", i, err)
		}
	}
	return nil
}

// isBulk reports whether tc is an octet-stream-like type whose
// marshaling constitutes a payload copy.
func isBulk(tc *typecode.TypeCode) bool {
	return tc.IsOctetSeq() || tc.IsZCOctetSeq()
}

// unmarshalValues reads values described by types from dec, consuming
// deposit buffers (in order) for ZC octet streams that traveled as
// deposits. ZC-typed values always come back as *zcbuf.Buffer: a
// deposited buffer on the fast path, or a wrapper around the copied
// bytes on the fallback path, which the receiver owns. It returns any
// deposits it did not consume (so the caller can release them on
// error). The values are appended to vals[:0], the caller's storage.
//
// owned is non-nil for a request's in-arguments: a plain octet
// sequence is then copied into a pooled buffer appended to *owned,
// which the ORB takes back once the servant has returned (CORBA's rule
// for in-parameters). Reply values (owned nil), which the caller
// keeps, and ZC-typed values, which a servant may Retain, are copied
// into memory of their own.
func (o *ORB) unmarshalValues(vals []any, dec *cdr.Decoder, types []*typecode.TypeCode,
	deposits []*zcbuf.Buffer, haveDeposits bool, owned *[][]byte) ([]any, []*zcbuf.Buffer, error) {
	vals = vals[:0]
	di := 0
	for i, tc := range types {
		if tc.IsZCOctetSeq() && haveDeposits {
			if di >= len(deposits) {
				return nil, nil, fmt.Errorf("orb: parameter %d: missing deposit block", i)
			}
			vals = append(vals, deposits[di])
			di++
			continue
		}
		// Compiled fast path: a codec registered for this exact
		// TypeCode reconstructs the concrete Go type directly.
		// Structurally equal TypeCodes built by dynamic callers are
		// different pointers, miss here, and take the interpreter.
		if c, ok := lookupCDRCodec(tc); ok && c.dec != nil {
			v, err := c.dec(dec)
			if err != nil {
				return nil, deposits[di:], fmt.Errorf("orb: parameter %d: %w", i, err)
			}
			vals = append(vals, v)
			continue
		}
		var v any
		var err error
		switch {
		case tc.IsOctetSeq():
			v, err = o.readOctets(dec, tc, owned)
		case tc.IsZCOctetSeq():
			var b []byte
			if b, err = o.readOctets(dec, tc, nil); err == nil {
				v = zcbuf.Wrap(b)
			}
		default:
			v, err = typecode.UnmarshalValue(dec, tc)
		}
		if err != nil {
			return nil, deposits[di:], fmt.Errorf("orb: parameter %d: %w", i, err)
		}
		vals = append(vals, v)
	}
	if di != len(deposits) {
		return nil, deposits[di:], fmt.Errorf("orb: %d unclaimed deposit blocks", len(deposits)-di)
	}
	return vals, nil, nil
}

// readOctets reads an octet sequence marshaled into the body, bound
// checked as the interpreter would: the standard path's demarshal copy
// (§4.2), counted as a payload copy. With owned non-nil the copy lands
// in a pooled buffer appended to *owned, which the ORB takes back
// after the servant returns; a sequence over cdr.PoolMax, which no
// free list keeps, and every copy with owned nil get memory of their
// own, filled without being cleared first.
func (o *ORB) readOctets(dec *cdr.Decoder, tc *typecode.TypeCode, owned *[][]byte) ([]byte, error) {
	in, err := dec.ReadOctetSeqView()
	if err != nil {
		return nil, err
	}
	if max := tc.Resolve().Len(); max > 0 && len(in) > max {
		return nil, fmt.Errorf("sequence bound %d exceeded (%d)", max, len(in))
	}
	o.stats.PayloadCopies.Add(1)
	o.stats.PayloadCopyBytes.Add(int64(len(in)))
	if owned == nil || len(in) == 0 || len(in) > cdr.PoolMax {
		return append([]byte{}, in...), nil // non-nil, even when empty
	}
	b := o.getBody(len(in))
	copy(b, in)
	*owned = append(*owned, b)
	return b, nil
}

// paramTypes projects the TypeCodes out of a parameter list.
func paramTypes(params []Param) []*typecode.TypeCode {
	out := make([]*typecode.TypeCode, len(params))
	for i, p := range params {
		out[i] = p.Type
	}
	return out
}
