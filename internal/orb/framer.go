package orb

import (
	"errors"
	"fmt"

	"zcorba/internal/giop"
	"zcorba/internal/zcbuf"
)

// speculateMax caps what the framer speculates: a predicted body or
// train region larger than this is not offered, so a bulk message is
// read as it would be without speculation. It decides nothing about
// where a train goes. Speculating a 1 MiB train region while the
// servant still held the previous one raised a bulk connection's peak
// RSS by about 1.3 MB (docs/PERF.md, "One stream").
const speculateMax = 64 << 10

// framer is the one GIOP framer: an incremental assembler that turns
// the control byte stream into logical messages, reassembling the
// fragment trains a GIOP 1.1 peer may send (this ORB sends every
// message as one frame). It never reads; its driver does. The legacy read
// loop fills next() with blocking scatter reads, the event engine with
// nonblocking ones that may stop anywhere, and both get the same
// messages and the same verdict on a malformed stream.
//
// Speculation: a connection that repeats an operation repeats its
// message layout. Once two accepted messages in a row had the same body
// size, next() offers the following one three regions — the header, a
// body buffer of that size, and, when their inline trains (one segment
// each) matched too, a pool buffer of the train's size — so one readv
// takes the whole message with its payload already in the buffer the
// servant will own. Sizes that change from message to message are not
// predicted at all, so a mixed stream reads as it would without
// speculation instead of missing on every message. The header says
// whether the guess held. A miss moves the misplaced bytes once, into
// carry, from which the stream is then replayed ahead of the socket;
// the move is counted as a payload copy and a speculation miss. Both
// predicted sizes come only from accepted messages and are capped by
// speculateMax, so bulk frames and trains are read exactly as without
// speculation.
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

	// lastBody and lastTrain are the body and inline-train sizes of the
	// last accepted message; predBody and predTrain are the predictions
	// for the next one: the same sizes when the message before agreed,
	// else 0 (none).
	lastBody, lastTrain int
	predBody, predTrain int
	// guess marks the message being read as speculative: body is the
	// predicted body and dep/dfill the predicted train region. After the
	// message completes, open marks its train as not yet settled and
	// specd that its body was in place and its train region still
	// awaits the verdict of settle.
	guess, open, specd bool
	dep                *zcbuf.Buffer
	dfill              int
	// carry holds stream bytes a miss moved out of the speculative
	// regions; they are replayed from coff before the socket is read.
	carry []byte
	coff  int
	regs  [3][]byte
}

// next returns the regions the next stream bytes belong in, in stream
// order; the first is never empty, since a frame whose payload is
// complete is consumed by advance. At a message boundary it first
// settles the last message's train, then opens a speculative read when
// a layout is predicted. carried > 0 means the bytes are already there:
// that many carried bytes were replayed into the first region, and the
// driver hands them to advance instead of reading the socket.
func (f *framer) next() (regions [][]byte, carried int) {
	if f.hfill == 0 && !f.train && !f.guess {
		f.settle(0)
		if f.predBody > 0 && !f.buffered() {
			f.speculate()
		}
	}
	r := f.regs[:0]
	if f.hfill < giop.HeaderSize {
		r = append(r, f.hdr[f.hfill:])
	}
	if f.hfill == giop.HeaderSize || f.guess {
		r = append(r, f.body[f.fill:])
	}
	if f.dep != nil && f.guess {
		r = append(r, f.dep.Bytes()[f.dfill:])
	}
	if f.buffered() {
		carried = copy(r[0], f.carry[f.coff:])
		f.consumeCarry(carried)
	}
	return r, carried
}

// buffered reports carried bytes not yet replayed.
func (f *framer) buffered() bool { return f.coff < len(f.carry) }

func (f *framer) consumeCarry(n int) {
	if f.coff += n; f.coff == len(f.carry) {
		f.carry, f.coff = f.carry[:0], 0
	}
}

// advance records n bytes written into next()'s regions. ok reports a
// complete logical message, whose body the caller then owns. err
// reports a framing violation — bad header, oversized frame or train,
// a Fragment with no open train, or anything else inside one — after
// which the stream cannot be trusted and the framer must be dropped.
func (f *framer) advance(n int) (hdr giop.Header, body []byte, ok bool, err error) {
	began := f.hfill == giop.HeaderSize
	if !began {
		h := min(n, giop.HeaderSize-f.hfill)
		f.hfill, n = f.hfill+h, n-h
	}
	// Past the header, bytes fill the body, and under a guess the rest
	// spilled on into the predicted train region.
	b := min(n, len(f.body)-f.fill)
	f.fill, f.dfill = f.fill+b, f.dfill+n-b
	if f.hfill < giop.HeaderSize {
		return hdr, nil, false, nil
	}
	if !began {
		if err := f.begin(); err != nil {
			f.drop()
			return hdr, nil, false, err
		}
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
	// A guess that offered no train region is judged by its body alone:
	// count the hit now, before the message is handled, so the count is
	// current by the time its reply leaves.
	if f.guess && f.dep == nil {
		f.orb.stats.SpeculationHits.Add(1)
	}
	f.open, f.specd, f.guess = true, f.guess && f.dep != nil, false
	size := len(body)
	if f.cur.Type == giop.MsgFragment || size > speculateMax {
		size = 0
	}
	f.predBody, f.lastBody = stable(size, f.lastBody), size
	return hdr, body, true, nil
}

// begin decodes a completed wire header and opens its payload region:
// the predicted body when the guess holds, a fresh pooled body for
// another initial frame, the tail of the train's body for a Fragment.
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
		if f.guess && (h.MoreFragments() || int(h.Size) != len(f.body)) {
			f.miss()
		}
		if !f.guess {
			f.body = f.orb.getBody(int(h.Size))
		}
		f.msg = h
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
		if total > cap(body) && len(body) > 0 {
			// Growing moves the train's bytes so far: a payload copy,
			// counted as a speculation miss counts its carry.
			f.orb.stats.PayloadCopies.Add(1)
			f.orb.stats.PayloadCopyBytes.Add(int64(len(body)))
		}
		if total > cap(body) && !h.MoreFragments() {
			// Last fragment: the message's size is known now, so grow
			// once to exactly that instead of append's amortized 1.25x,
			// which would leave a quarter of a bulk body spare.
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

// speculate opens the regions of a predicted message: a body of the
// last body's size and, when the last message carried an inline train
// of one segment, a pool buffer of its size.
func (f *framer) speculate() {
	f.releaseDep()
	f.body, f.fill = f.orb.getBody(f.predBody), 0
	if f.predTrain > 0 {
		if b, err := f.orb.pool.Get(f.predTrain); err == nil {
			f.dep, f.dfill = b, 0
		}
	}
	f.guess = true
}

// miss abandons the guess of the message being read: every byte it
// placed past the header moves to carry, in stream order, to be
// replayed into the right buffers.
func (f *framer) miss() {
	s := &f.orb.stats
	s.SpeculationMisses.Add(1)
	if moved := f.fill + f.dfill; moved > 0 {
		f.carry = append(f.carry, f.body[:f.fill]...)
		if f.dep != nil {
			f.carry = append(f.carry, f.dep.Bytes()[:f.dfill]...)
		}
		s.PayloadCopies.Add(1)
		s.PayloadCopyBytes.Add(int64(moved))
	}
	f.orb.putBody(f.body)
	f.body, f.fill = nil, 0
	f.releaseDep()
	f.guess = false
}

// settle closes the train of the last completed message: train is the
// size of its inline train when that is one segment within
// speculateMax, else 0. It judges a speculative read that offered a
// train region — a hit when the train matches it, else the region's
// bytes move to carry — and updates the train prediction. It runs once
// per message: from the inline-train receive, or from next() for a
// message without one.
func (f *framer) settle(train int) {
	if !f.open {
		return
	}
	f.open = false
	if f.specd {
		if train == f.predTrain {
			f.orb.stats.SpeculationHits.Add(1)
		} else {
			// The body was in place and handed on, so only train bytes
			// can be misplaced.
			f.miss()
		}
	}
	f.predTrain, f.lastTrain = stable(train, f.lastTrain), train
}

// stable is the prediction after observing size following last: size
// when the two agree, else none.
func stable(size, last int) int {
	if size == last {
		return size
	}
	return 0
}

// trainSegment returns the buffer for the next segment of a settled
// inline train and how many of its bytes are already in it: the
// speculative region itself on a hit, else a pool buffer filled first
// from carry. The caller reads the rest from the control stream.
func (f *framer) trainSegment(size int) (*zcbuf.Buffer, int, error) {
	if b := f.dep; b != nil {
		n := f.dfill
		f.dep, f.dfill = nil, 0
		return b, n, nil
	}
	b, err := f.orb.pool.Get(size)
	if err != nil {
		return nil, 0, err
	}
	n := copy(b.Bytes(), f.carry[f.coff:])
	f.consumeCarry(n)
	return b, n, nil
}

// inlineTrainKey is what settle compares and predicts for a train of
// the given sizes.
func inlineTrainKey(sizes []uint32) int {
	if len(sizes) == 1 && sizes[0] <= speculateMax {
		return int(sizes[0])
	}
	return 0
}

// idle gives back the regions of a guess nothing has been read into,
// so a parked connection holds no buffers; the next next() takes them
// again.
func (f *framer) idle() {
	if f.guess && f.hfill == 0 {
		f.orb.putBody(f.body)
		f.body = nil
		f.releaseDep()
		f.guess = false
	}
}

// drop releases everything the framer holds; the connection is done.
func (f *framer) drop() {
	f.orb.putBody(f.body)
	f.body, f.fill = nil, 0
	f.releaseDep()
	f.carry, f.coff = nil, 0
	f.guess, f.open = false, false
}

func (f *framer) releaseDep() {
	if f.dep != nil {
		f.dep.Release()
		f.dep, f.dfill = nil, 0
	}
}
