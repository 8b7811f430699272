package orb

import (
	"errors"
	"fmt"

	"zcorba/internal/giop"
)

// framer is the one GIOP framer: an incremental assembler that turns
// the control byte stream into logical messages, reassembling 1.1-style
// fragment trains. It never reads; its driver does. The legacy read
// loop fills next() with a blocking io.ReadFull, the event engine with
// nonblocking reads that may stop anywhere, and both get the same
// messages and the same verdict on a malformed stream.
//
// Every declared size is checked against the ORB's bound before the
// body buffer is taken, so a corrupt or hostile header cannot drive an
// arbitrary allocation. A decoded header's size is at most
// giop.MaxMessageSize, so sizes and totals fit an int on every platform.
type framer struct {
	orb *ORB
	// hdr/hfill hold the wire header being read; hfill reaches
	// HeaderSize once cur is decoded and the frame's payload is due.
	hdr   [giop.HeaderSize]byte
	hfill int
	cur   giop.Header
	// msg is the logical message's header (its first frame); body and
	// fill hold the payload read so far. train marks an open fragment
	// train: only Fragment frames may follow.
	msg   giop.Header
	body  []byte
	fill  int
	train bool
}

// next returns the region the next stream bytes belong in. It is never
// empty: a frame whose payload is complete is consumed by advance.
func (f *framer) next() []byte {
	if f.hfill < giop.HeaderSize {
		return f.hdr[f.hfill:]
	}
	return f.body[f.fill:]
}

// advance records n bytes written into next()'s region. ok reports a
// complete logical message, whose body the caller then owns. err
// reports a framing violation — bad header, oversized frame or train,
// a Fragment with no open train, or anything else inside one — after
// which the stream cannot be trusted and the framer must be dropped.
func (f *framer) advance(n int) (hdr giop.Header, body []byte, ok bool, err error) {
	if f.hfill < giop.HeaderSize {
		if f.hfill += n; f.hfill < giop.HeaderSize {
			return hdr, nil, false, nil
		}
		if err := f.begin(); err != nil {
			f.orb.putBody(f.body)
			f.body = nil
			return hdr, nil, false, err
		}
	} else {
		f.fill += n
	}
	if f.fill < len(f.body) {
		return hdr, nil, false, nil
	}
	f.hfill = 0
	if f.train = f.cur.MoreFragments(); f.train {
		return hdr, nil, false, nil
	}
	hdr, body = f.msg, f.body
	f.body, f.fill = nil, 0
	return hdr, body, true, nil
}

// begin decodes a completed wire header and opens its payload region:
// a fresh pooled body for an initial frame, the tail of the train's
// body for a Fragment.
func (f *framer) begin() error {
	h, err := giop.DecodeHeader(f.hdr[:])
	if err != nil {
		return err
	}
	max := f.orb.maxMessageSize()
	if !f.train {
		if h.Type == giop.MsgFragment {
			return errors.New("Fragment with no initial message")
		}
		if int(h.Size) > max {
			return tooLarge(int(h.Size), max)
		}
		f.msg, f.body = h, f.orb.getBody(int(h.Size))
	} else {
		if h.Type != giop.MsgFragment {
			return fmt.Errorf("expected Fragment, got %v", h.Type)
		}
		total := len(f.body) + int(h.Size)
		if total > max {
			return tooLarge(total, max)
		}
		// Grow through a local and clear the field first: the growth
		// may start a GC cycle, and overwriting a heap pointer during
		// marking keeps its old target alive through that cycle, which
		// would carry the outgrown buffer into the next heap goal.
		body := f.body
		f.body = nil
		if total > cap(body) && !h.MoreFragments() {
			// Last fragment: the message's size is known now, so grow
			// once to exactly that instead of append's amortized 1.25x.
			// A bulk standard-path request then churns buffers of one
			// size (payload plus headers) whose freed spans fit each
			// other; the over-allocated body fitted none of them, and
			// how far the heap grew to place it depended on timing.
			whole := make([]byte, total)
			copy(whole, body)
			body = whole
		} else {
			body = append(body, make([]byte, h.Size)...)
		}
		f.body = body
	}
	f.cur = h
	return nil
}
