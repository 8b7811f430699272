package orb

import (
	"bytes"
	"fmt"
	"testing"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/zcbuf"
)

// framed is one logical message a framer completed, with the segments
// of the inline train that followed it.
type framed struct {
	hdr      giop.Header
	body     []byte
	deposits [][]byte
}

// framerORB is the least ORB a framer runs on: a bound and a pool for
// speculative train regions.
func framerORB(max int) *ORB {
	return &ORB{opts: Options{MaxMessageSize: max}, pool: new(zcbuf.Pool)}
}

// scatter copies src into regions in order, as one readv would, and
// returns the bytes placed.
func scatter(regions [][]byte, src []byte) int {
	n := 0
	for _, r := range regions {
		k := copy(r, src[n:])
		n += k
		if k < len(r) {
			break
		}
	}
	return n
}

// inlineSizes returns the train sizes a Request or Reply announces as
// inline (nil for anything else), and readInline's verdict on a train
// over the bound.
func inlineSizes(hdr giop.Header, body []byte) ([]uint32, error) {
	d := cdr.NewDecoder(hdr.Order(), giop.HeaderSize, body)
	var scs []giop.ServiceContext
	switch hdr.Type {
	case giop.MsgRequest:
		h, err := giop.UnmarshalRequestHeader(d)
		if err != nil {
			return nil, nil
		}
		scs = h.ServiceContexts
	case giop.MsgReply:
		h, err := giop.UnmarshalReplyHeader(d)
		if err != nil {
			return nil, nil
		}
		scs = h.ServiceContexts
	}
	data, ok := giop.Find(scs, giop.ZCDepositContextID)
	if !ok {
		return nil, nil
	}
	di, err := giop.DecodeDepositInfo(data)
	if err != nil || !di.Inline {
		return nil, nil
	}
	total, err := di.Total()
	if err != nil {
		return nil, err
	}
	if total > inlineDepositMax {
		return nil, fmt.Errorf("inline deposit train of %d bytes exceeds %d", total, inlineDepositMax)
	}
	return di.Sizes, nil
}

// feedFramer runs stream through a fresh framer that starts out
// predicting the given body and train sizes, as the read loop drives
// it: carried bytes first, else one scatter read of at most step()
// bytes across next()'s regions, and each inline train taken the way
// readInline takes it. It returns the messages completed before the
// stream ran out or a violation stopped it.
func feedFramer(o *ORB, stream []byte, step func() int, predBody, predTrain int) ([]framed, error) {
	f := framer{orb: o, lastBody: predBody, lastTrain: predTrain,
		predBody: predBody, predTrain: predTrain}
	defer f.drop()
	var msgs []framed
	for {
		regions, n := f.next()
		if n == 0 {
			if len(stream) == 0 {
				return msgs, nil
			}
			n = scatter(regions, stream[:min(step(), len(stream))])
			stream = stream[n:]
		}
		hdr, body, ok, err := f.advance(n)
		if err != nil {
			return msgs, err
		}
		if !ok {
			continue
		}
		m := framed{hdr: hdr, body: body}
		sizes, err := inlineSizes(hdr, body)
		if err != nil {
			return msgs, err
		}
		if len(sizes) > 0 {
			f.settle(inlineTrainKey(sizes))
		}
		for _, size := range sizes {
			b, got, err := f.trainSegment(int(size))
			if err != nil {
				return msgs, err
			}
			k := copy(b.Bytes()[got:], stream)
			stream = stream[k:]
			seg := bytes.Clone(b.Bytes())
			b.Release()
			if got+k < int(size) {
				return msgs, nil // the stream ran out inside the train
			}
			m.deposits = append(m.deposits, seg)
		}
		msgs = append(msgs, m)
	}
}

// TestReassemblySizesLastFragmentExactly: the last fragment tells the
// message's size, so reassembly grows to it once. append's amortized
// quarter would leave a bulk train's body a quarter spare. Both feeds
// of the one framer are checked: whole regions, as the legacy loop
// reads, and page-sized pieces, as the event engine may see them.
func TestReassemblySizesLastFragmentExactly(t *testing.T) {
	const first, tail = 1 << 20, 100
	want := pattern(first + tail)
	var stream bytes.Buffer
	frame := func(typ giop.MsgType, chunk []byte, more bool) {
		h := giop.Header{Major: 1, Minor: 1, Flags: byte(cdr.NativeOrder),
			Type: typ, Size: uint32(len(chunk))}
		if more {
			h.Flags |= giop.FlagMoreFragments
		}
		var hdr [giop.HeaderSize]byte
		giop.EncodeHeader(hdr[:], h)
		stream.Write(hdr[:])
		stream.Write(chunk)
	}
	frame(giop.MsgRequest, want[:first], true)
	frame(giop.MsgFragment, want[first:], false)

	for _, step := range []int{stream.Len(), 4096} {
		msgs, err := feedFramer(framerORB(0), stream.Bytes(), func() int { return step }, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("step %d: framed %d messages, want 1", step, len(msgs))
		}
		hdr, body := msgs[0].hdr, msgs[0].body
		if hdr.Type != giop.MsgRequest || !bytes.Equal(body, want) {
			t.Fatalf("step %d: reassembled %v of %d bytes, want the %d sent",
				step, hdr.Type, len(body), len(want))
		}
		// The allocator rounds a large buffer up to whole pages, not by
		// a fraction of its size.
		if slack := cap(body) - len(body); slack >= len(body)/8 {
			t.Fatalf("step %d: body of %d bytes holds %d spare: grown by append, not to size",
				step, len(body), slack)
		}
	}
}

// TestGetBodyKeepsSmallFreeBody: a free body too small for a bulk
// message goes back to the free list, so the small message after the
// bulk one reuses it instead of allocating.
func TestGetBodyKeepsSmallFreeBody(t *testing.T) {
	o := &ORB{bodyFree: make(chan []byte, bodyFreeSlots)}
	o.putBody(o.getBody(64))
	// Above maxPooledBody, so the bulk body itself is not kept.
	o.putBody(o.getBody(maxPooledBody + 1))
	allocs, reuses := o.stats.BodyAllocs.Load(), o.stats.BodyReuses.Load()
	o.getBody(64)
	if got := o.stats.BodyReuses.Load() - reuses; got != 1 {
		t.Fatalf("small body after a bulk one: %d reuses, want 1", got)
	}
	if got := o.stats.BodyAllocs.Load() - allocs; got != 0 {
		t.Fatalf("small body after a bulk one: %d allocations, want 0", got)
	}
}
