package orb

import (
	"bytes"
	"testing"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
)

// framed is one logical message a framer completed.
type framed struct {
	hdr  giop.Header
	body []byte
}

// feedFramer runs stream through a fresh framer, writing at most step()
// bytes into each next() region, and returns the messages completed
// before the stream ran out or a violation stopped it.
func feedFramer(o *ORB, stream []byte, step func() int) ([]framed, error) {
	f := framer{orb: o}
	var msgs []framed
	for len(stream) > 0 {
		n := copy(f.next(), stream[:min(step(), len(stream))])
		stream = stream[n:]
		hdr, body, ok, err := f.advance(n)
		if err != nil {
			return msgs, err
		}
		if ok {
			msgs = append(msgs, framed{hdr, body})
		}
	}
	return msgs, nil
}

// TestReassemblySizesLastFragmentExactly: the last fragment tells the
// message's size, so reassembly grows to it once. append's amortized
// quarter made the body of a threshold-sized payload plus headers the
// one odd-sized buffer of every bulk standard-path request. Both feeds
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
		msgs, err := feedFramer(&ORB{}, stream.Bytes(), func() int { return step })
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
