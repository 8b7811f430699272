package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/ior"
	"zcorba/internal/transport"
)

// scriptedPeer is the server end of one client connection, played by
// the test: it answers with whatever frames the script sends, so a
// client can be fed replies no ORB would send. in carries every frame
// the client writes; a reader drains the stream into it because a pipe
// write blocks until it is read.
type scriptedPeer struct {
	t  *testing.T
	c  transport.Conn
	in chan scriptedFrame
}

type scriptedFrame struct {
	typ giop.MsgType
	id  uint32 // the request id of a Request, LocateRequest or CancelRequest
}

// hostileRef returns a reference to an object on a scripted in-process
// server, and a function that returns the server end of the client's
// connection to it, which the reference's first call dials. The peer
// reads from the moment it accepts, so that call's send completes.
func hostileRef(t *testing.T) (*ObjectRef, func() *scriptedPeer) {
	t.Helper()
	tr := &transport.InProc{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err := New(Options{Transport: tr, CallTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	done := make(chan struct{})
	accepted := make(chan *scriptedPeer, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		p := &scriptedPeer{t: t, c: c, in: make(chan scriptedFrame, 64)}
		accepted <- p
		p.read(done)
	}()
	t.Cleanup(func() {
		close(done)
		select {
		case p := <-accepted:
			p.c.Close()
		default:
		}
	})
	ref := &ObjectRef{orb: client, ior: ior.NewIIOP("IDL:test/Store:1.0", l.Addr(), 0, []byte("store"))}
	return ref, func() *scriptedPeer {
		select {
		case p := <-accepted:
			accepted <- p
			return p
		case <-time.After(5 * time.Second):
			t.Fatal("the client never connected")
		}
		return nil
	}
}

// read parses the client's frames until the stream ends.
func (p *scriptedPeer) read(done chan struct{}) {
	defer close(p.in)
	for {
		h, err := giop.ReadHeader(p.c)
		if err != nil {
			return
		}
		body := make([]byte, h.Size)
		if _, err := io.ReadFull(p.c, body); err != nil {
			return
		}
		f := scriptedFrame{typ: h.Type}
		dec := cdr.NewDecoder(h.Order(), giop.HeaderSize, body)
		switch h.Type {
		case giop.MsgRequest:
			req, _ := giop.UnmarshalRequestHeader(dec)
			f.id = req.RequestID
		case giop.MsgLocateRequest:
			lreq, _ := giop.UnmarshalLocateRequestHeader(dec)
			f.id = lreq.RequestID
		case giop.MsgCancelRequest:
			creq, _ := giop.UnmarshalCancelRequestHeader(dec)
			f.id = creq.RequestID
		}
		select {
		case p.in <- f:
		case <-done:
			return
		}
	}
}

// next returns the client's next frame, which must be of type want.
func (p *scriptedPeer) next(want giop.MsgType) uint32 {
	p.t.Helper()
	select {
	case f, ok := <-p.in:
		if !ok {
			p.t.Fatalf("stream ended, want %v", want)
		}
		if f.typ != want {
			p.t.Fatalf("client sent %v, want %v", f.typ, want)
		}
		return f.id
	case <-time.After(5 * time.Second):
		p.t.Fatalf("no %v from the client", want)
	}
	return 0
}

func (p *scriptedPeer) send(typ giop.MsgType, body []byte) {
	p.t.Helper()
	hdr := make([]byte, giop.HeaderSize)
	giop.EncodeHeader(hdr, giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: typ, Size: uint32(len(body))})
	if _, err := p.c.WriteGather(hdr, body); err != nil {
		p.t.Fatal(err)
	}
}

// reply answers request id of put_std with the result val.
func (p *scriptedPeer) reply(id, val uint32) {
	p.t.Helper()
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException}).Marshal(e)
	e.WriteULong(val)
	p.send(giop.MsgReply, e.Bytes())
}

func (p *scriptedPeer) locateReply(id uint32) {
	p.t.Helper()
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.LocateReplyHeader{RequestID: id, Status: giop.LocateObjectHere}).Marshal(e)
	p.send(giop.MsgLocateReply, e.Bytes())
}

// answer is the result the script gives request id; bogus is what it
// sends where no call may see it.
func answer(id uint32) uint32 { return id*7 + 1 }

const bogus = 0xBAD

// wantAnswer checks that call got the answer to its own request.
func wantAnswer(t *testing.T, call *Call) {
	t.Helper()
	id := call.id
	res, _, err := call.Wait()
	if err != nil {
		t.Fatalf("call %d: %v", id, err)
	}
	if got := res.(uint32); got != answer(id) {
		t.Fatalf("call %d got %d, the answer to another request (want %d)", id, got, answer(id))
	}
}

// wantClosed checks that err is the COMM_FAILURE of a connection the
// client tore down, and that the client told the peer why.
func wantClosed(t *testing.T, p *scriptedPeer, err error) {
	t.Helper()
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "COMM_FAILURE" {
		t.Fatalf("got %v, want COMM_FAILURE from the closed connection", err)
	}
	p.next(giop.MsgMessageError)
}

// TestHostileServerReplies: replies no well-behaved server sends never
// reach another call's waiter. A reply whose id names no live slot is
// dropped; an answer of the wrong kind for a live id is a protocol
// error. Every slot is free afterwards.
func TestHostileServerReplies(t *testing.T) {
	put := storeIface.Ops["put_std"]
	args := []any{[]byte{1}}

	t.Run("unknown_id", func(t *testing.T) {
		ref, accept := hostileRef(t)
		call := ref.InvokeAsync(put, args)
		p := accept()
		id := p.next(giop.MsgRequest)
		p.reply(id+1000, bogus)
		p.reply(id^1, bogus)
		p.reply(id, answer(id))
		wantAnswer(t, call)
		if n := occupiedSlots(ref); n != 0 {
			t.Fatalf("%d reply slots occupied", n)
		}
	})

	t.Run("duplicate_reply", func(t *testing.T) {
		ref, accept := hostileRef(t)
		call := ref.InvokeAsync(put, args)
		p := accept()
		id := p.next(giop.MsgRequest)
		p.reply(id, answer(id))
		p.reply(id, bogus)
		wantAnswer(t, call)
		next := ref.InvokeAsync(put, args)
		nid := p.next(giop.MsgRequest)
		p.reply(id, bogus)
		p.reply(nid, answer(nid))
		wantAnswer(t, next)
		if n := occupiedSlots(ref); n != 0 {
			t.Fatalf("%d reply slots occupied", n)
		}
	})

	t.Run("locate_reply_for_request", func(t *testing.T) {
		ref, accept := hostileRef(t)
		call := ref.InvokeAsync(put, args)
		p := accept()
		p.locateReply(p.next(giop.MsgRequest))
		_, _, err := call.Wait()
		wantClosed(t, p, err)
		if n := occupiedSlots(ref); n != 0 {
			t.Fatalf("%d reply slots occupied", n)
		}
	})

	t.Run("reply_for_locate", func(t *testing.T) {
		ref, accept := hostileRef(t)
		errc := make(chan error, 1)
		go func() {
			status, err := ref.Locate()
			if err == nil {
				err = fmt.Errorf("locate answered %v", status)
			}
			errc <- err
		}()
		p := accept()
		p.reply(p.next(giop.MsgLocateRequest), bogus)
		wantClosed(t, p, <-errc)
		if n := occupiedSlots(ref); n != 0 {
			t.Fatalf("%d reply slots occupied", n)
		}
	})

	t.Run("late_reply_in_reused_slot", func(t *testing.T) {
		ref, accept := hostileRef(t)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			_, _, err := ref.InvokeCtx(ctx, put, args)
			errc <- err
		}()
		p := accept()
		late := p.next(giop.MsgRequest)
		if !errors.Is(<-errc, context.DeadlineExceeded) {
			t.Fatal("the unanswered call did not time out")
		}
		if id := p.next(giop.MsgCancelRequest); id != late {
			t.Fatalf("cancelled request %d, want %d", id, late)
		}
		// A full table of new calls: the last one's id maps to the
		// timed-out call's slot.
		var calls [replySlots0]*Call
		for i := range calls {
			calls[i] = ref.InvokeAsync(put, args)
			p.next(giop.MsgRequest)
		}
		if reuse := calls[len(calls)-1].id; reuse&(replySlots0-1) != late&(replySlots0-1) || reuse == late {
			t.Fatalf("call %d does not reuse the slot of call %d", reuse, late)
		}
		p.reply(late, bogus)
		for i := len(calls) - 1; i >= 0; i-- {
			p.reply(calls[i].id, answer(calls[i].id))
		}
		for _, call := range calls {
			wantAnswer(t, call)
		}
		if n := occupiedSlots(ref); n != 0 {
			t.Fatalf("%d reply slots occupied", n)
		}
	})
}

// TestReplyTableGrows: more concurrent calls than the table's initial
// size double it, and every call still gets its own answer.
func TestReplyTableGrows(t *testing.T) {
	ref, accept := hostileRef(t)
	put := storeIface.Ops["put_std"]
	const n = 4*replySlots0 + 3
	calls := make([]*Call, n)
	calls[0] = ref.InvokeAsync(put, []any{[]byte{1}})
	p := accept()
	p.next(giop.MsgRequest)
	for i := 1; i < n; i++ {
		calls[i] = ref.InvokeAsync(put, []any{[]byte{1}})
		p.next(giop.MsgRequest)
	}
	if got := occupiedSlots(ref); got != n {
		t.Fatalf("%d reply slots occupied, want %d", got, n)
	}
	for i := n - 1; i >= 0; i-- {
		p.reply(calls[i].id, answer(calls[i].id))
	}
	for _, call := range calls {
		wantAnswer(t, call)
	}
	if got := occupiedSlots(ref); got != 0 {
		t.Fatalf("%d reply slots occupied", got)
	}
}
