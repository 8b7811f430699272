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
// (counted in Stats.ZCFallbacks). A bulk value is written straight to
// e as an octet sequence, bound checked as the interpreter would.
func (o *ORB) marshalValues(e *cdr.Encoder, types []*typecode.TypeCode, vals []any,
	skipZC bool) error {
	if len(types) != len(vals) {
		return fmt.Errorf("orb: %d values for %d parameters", len(vals), len(types))
	}
	for i, tc := range types {
		v := vals[i]
		zc := tc.IsZCOctetSeq()
		if zc && skipZC {
			continue
		}
		if zc || tc.IsOctetSeq() {
			b, ok := bulkBytes(v)
			if zc {
				if !ok {
					return errNotZC(i, v)
				}
				o.stats.ZCFallbacks.Add(1)
			}
			if ok {
				if max := tc.Resolve().Len(); max > 0 && len(b) > max {
					return fmt.Errorf("orb: parameter %d: sequence bound %d exceeded (%d)", i, max, len(b))
				}
				o.stats.PayloadCopies.Add(1)
				o.stats.PayloadCopyBytes.Add(int64(len(b)))
				e.WriteOctetSeq(b)
				continue
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

// unmarshalValues reads values described by types from dec, consuming
// deposit buffers (in order) for ZC octet streams that traveled as
// deposits. ZC-typed values always come back as *zcbuf.Buffer: a
// deposited buffer on the fast path, or a buffer from the ORB's pool
// holding the copied bytes on the fallback path. It returns any
// deposits it did not consume (so the caller can release them on
// error). The values are appended to vals[:0], the caller's storage.
//
// in is non-nil for a request's in-arguments, whose storage the ORB
// takes back once the servant has returned (CORBA's rule for
// in-parameters): a plain octet sequence is copied into a pooled
// buffer appended to in.octets, and the ORB's reference on a ZC-typed
// fallback buffer goes to in.bufs, so a servant that Retains the buffer
// keeps it while an unretained one returns to the pool. Reply values
// (in nil) belong to the caller: a plain octet sequence is copied into
// memory of its own, a ZC-typed buffer is the caller's to Release.
func (o *ORB) unmarshalValues(vals []any, dec *cdr.Decoder, types []*typecode.TypeCode,
	deposits []*zcbuf.Buffer, haveDeposits bool, in *inArgs) ([]any, []*zcbuf.Buffer, error) {
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
			v, err = o.readOctets(dec, tc, in)
		case tc.IsZCOctetSeq():
			v, err = o.readZCOctets(dec, tc, in)
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

// inArgs is the storage a request's in-arguments are demarshaled into
// (unmarshalValues), which the ORB takes back with the request once the
// servant has returned.
type inArgs struct {
	octets [][]byte        // plain octet sequences, from the body free lists
	bufs   []*zcbuf.Buffer // ZC-typed values that arrived marshaled
}

// free returns the storage: the octet sequences to the free lists, and
// the ORB's reference on each buffer, which goes back to its pool
// unless the servant Retained it.
func (a *inArgs) free(o *ORB) {
	for _, b := range a.octets {
		o.putBody(b)
	}
	releaseAll(a.bufs)
	a.octets, a.bufs = cleared(a.octets), a.bufs[:0]
}

// octetView reads an octet sequence marshaled into the body as a view
// of it, bound checked as the interpreter would. The caller copies it
// out: the standard path's demarshal copy (§4.2), counted here as a
// payload copy.
func (o *ORB) octetView(dec *cdr.Decoder, tc *typecode.TypeCode) ([]byte, error) {
	view, err := dec.ReadOctetSeqView()
	if err != nil {
		return nil, err
	}
	if max := tc.Resolve().Len(); max > 0 && len(view) > max {
		return nil, fmt.Errorf("sequence bound %d exceeded (%d)", max, len(view))
	}
	o.stats.PayloadCopies.Add(1)
	o.stats.PayloadCopyBytes.Add(int64(len(view)))
	return view, nil
}

// readOctets reads a plain octet sequence. With in non-nil the copy
// lands in a pooled buffer appended to in.octets; a sequence over
// cdr.PoolMax, which no free list keeps, and every copy with in nil get
// memory of their own, filled without being cleared first.
func (o *ORB) readOctets(dec *cdr.Decoder, tc *typecode.TypeCode, in *inArgs) ([]byte, error) {
	view, err := o.octetView(dec, tc)
	if err != nil {
		return nil, err
	}
	if in == nil || len(view) == 0 || len(view) > cdr.PoolMax {
		return append([]byte{}, view...), nil // non-nil, even when empty
	}
	b := o.getBody(len(view))
	copy(b, view)
	in.octets = append(in.octets, b)
	return b, nil
}

// readZCOctets reads a ZC-typed octet sequence that arrived marshaled
// into a buffer from the ORB's pool, so the copy lands in warm memory
// and the holder may Retain it. A request's buffer is recorded in
// in.bufs.
func (o *ORB) readZCOctets(dec *cdr.Decoder, tc *typecode.TypeCode, in *inArgs) (*zcbuf.Buffer, error) {
	view, err := o.octetView(dec, tc)
	if err != nil {
		return nil, err
	}
	b, err := o.pool.Get(len(view))
	if err != nil {
		return nil, err
	}
	copy(b.Bytes(), view)
	if in != nil {
		in.bufs = append(in.bufs, b)
	}
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
