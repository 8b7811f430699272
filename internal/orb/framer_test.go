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

// harnessTrainMax bounds the inline trains feedFramer takes: the ORB
// accepts up to giop.MaxDepositTotal, but a hostile size must not make
// the fuzzer allocate that much per input.
const harnessTrainMax = 1 << 20

// inlineSizes returns the train sizes a Request or Reply announces as
// inline (nil for anything else), and a verdict on a train over the
// harness's bound.
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
	if total > harnessTrainMax {
		return nil, fmt.Errorf("inline deposit train of %d bytes exceeds %d", total, harnessTrainMax)
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

// requestStream is a control stream of Requests without deposits whose
// bodies differ only in the length of the operation name.
func requestStream(ops ...string) []byte {
	var stream []byte
	for i, op := range ops {
		e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
		req := giop.RequestHeader{
			RequestID: uint32(i + 1), ResponseExpected: true,
			ObjectKey: []byte("store"), Operation: op, Principal: []byte{},
		}
		req.Marshal(e)
		var hdr [giop.HeaderSize]byte
		giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
			Type: giop.MsgRequest, Size: uint32(len(e.Bytes()))})
		stream = append(append(stream, hdr[:]...), e.Bytes()...)
	}
	return stream
}

// TestSpeculationMissKeepsBody: two same-size requests make the framer
// predict the third's body; a shorter third misses, but its body is
// already in the predicted buffer, so nothing is copied. Bytes the
// speculative read took past the message's end (the next message's)
// are the only ones moved. A third a little longer also fits, in the
// spare capacity of the body's size class, and is read on into it.
func TestSpeculationMissKeepsBody(t *testing.T) {
	long, short := "operation_long_name", "op"
	bodySize := func(op string) int { return len(requestStream(op)) - giop.HeaderSize }
	// The shortest longer name whose body still fits the capacity a
	// body of long's size gets.
	spare := cap(framerORB(0).getBody(bodySize(long)))
	longer := long
	for bodySize(longer) == bodySize(long) {
		longer += "x"
	}
	if bodySize(longer) > spare {
		t.Fatalf("a %d-byte body got capacity %d: no room for a %d-byte one",
			bodySize(long), spare, bodySize(longer))
	}
	for _, tc := range []struct {
		name       string
		ops        []string
		copies     int64
		pastTheEnd bool
	}{
		{"short last", []string{long, long, short}, 0, false},
		{"short then more", []string{long, long, short, short}, 1, true},
		{"longer last", []string{long, long, longer}, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := requestStream(tc.ops...)
			o := framerORB(0)
			msgs, err := feedFramer(o, stream, func() int { return len(stream) }, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(msgs) != len(tc.ops) {
				t.Fatalf("framed %d messages, want %d", len(msgs), len(tc.ops))
			}
			rest := stream
			for i, m := range msgs {
				want := rest[giop.HeaderSize : giop.HeaderSize+int(m.hdr.Size)]
				if !bytes.Equal(m.body, want) {
					t.Fatalf("message %d: body differs from the stream", i)
				}
				rest = rest[giop.HeaderSize+len(want):]
			}
			st := &o.stats
			if m := st.SpeculationMisses.Load(); m != 1 {
				t.Fatalf("%d speculation misses, want 1", m)
			}
			if c := st.PayloadCopies.Load(); c != tc.copies {
				t.Fatalf("%d payload copies (%d bytes), want %d", c, st.PayloadCopyBytes.Load(), tc.copies)
			}
			if tc.pastTheEnd {
				// The guess read a long body's worth; the short body's
				// bytes stayed, the next message's moved.
				longBody, shortBody := bodySize(long), bodySize(short)
				if n := st.PayloadCopyBytes.Load(); n != int64(longBody-shortBody) {
					t.Fatalf("moved %d bytes, want the %d past the short message", n, longBody-shortBody)
				}
			}
		})
	}
}
