package orb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// conn is one GIOP connection (the paper's GIOPConn): a byte stream
// carrying GIOP messages and, on a stream plane, their direct-deposit
// payloads too; on the shm plane a shared-memory ring beside the stream
// carries the payloads instead.
//
// Client-created conns send Requests and receive Replies; server-
// accepted conns receive Requests and send Replies. Writes of a control
// message and its deposit payloads happen under one mutex so both
// streams observe the same order; the receiver's read loop reads the
// deposit inline right after parsing the control message (the second
// callback of §4.5), which preserves that order end to end.
//
// A deposit is a train of segments, on every plane: the payloads of one
// message leave in one call, and a single-buffer deposit is a train of
// one. On a connection without a ring — every stream plane — the train
// rides the stream's writev behind its message (inline), whatever its
// size; on a connection with one it is deposited into the ring, one
// record per segment, and claimed in place on the other side. No plane
// keeps a reference to a segment once that call returns.
//
// A client connection matches replies to their waiters in one slot
// array under mu: the request id, which the connection allocates,
// indexes its slot directly, so a reply costs one index and one compare
// (see replySlot).
type conn struct {
	orb *ORB
	// ctrl is the byte stream the GIOP messages travel: the whole
	// connection on a stream plane, the Unix socket on the shm plane.
	ctrl transport.Conn
	// ring is the shm connection whose ring pair carries the deposits
	// (ctrl is its stream); nil on a stream plane, whose trains ride
	// ctrl.
	ring     transport.RingConn
	isServer bool
	// zc marks a client connection whose requests may carry deposits
	// (the peer offered them and the architectures match). A server
	// learns the same from each request's announcement.
	zc bool

	// ringDown marks the shm ring retired while the stream stays
	// usable: the graceful-degradation state in which deposits fall
	// back to the standard marshaled path (docs/FAULTS.md).
	ringDown atomic.Bool
	// onLeaseExpire is the deposit-lease expiry hook, built once so
	// granting a lease does not allocate a closure per transfer;
	// onInlineExpire is its inline-train twin, which has only the
	// control stream to close.
	onLeaseExpire  func()
	onInlineExpire func()

	sendMu sync.Mutex
	// Send-path scratch, guarded by sendMu: reusing the header buffer
	// and gather segment list keeps steady-state sends allocation-free.
	hdrBuf [giop.HeaderSize]byte
	segs   [][]byte

	// frame assembles the inbound control stream. It belongs to the
	// one loop reading the connection: readLoop, or the event engine's
	// service pass. So does announced, the decoded deposit
	// announcement of the message being read, which no handler sees.
	frame     framer
	announced giop.DepositInfo

	closed atomic.Bool

	mu  sync.Mutex // guards err, onClose, and the reply slots
	err error
	// onClose runs exactly once during close, before the control stream
	// is torn down: the event engine deregisters the connection's fd
	// there while the fd is still open (a deregistration after Close
	// could hit a reused fd number).
	onClose func()

	// slots is a client connection's reply table (nil on a server one):
	// a power-of-two array indexed by request id. nextID is the last
	// request id handed out.
	slots  []replySlot
	nextID uint32

	closeOnce sync.Once
}

// replySlots0 is the initial size of a client connection's reply table,
// a power of two; take doubles it when every slot is occupied. Live ids
// that differ mod n also differ mod 2n, so doubling never collides.
const replySlots0 = 8

// slotKind is what a reply slot waits for: free, a Reply to a Request,
// or a LocateReply to a LocateRequest.
type slotKind uint8

const (
	slotFree slotKind = iota
	slotRequest
	slotLocate
)

// replySlot is one entry of the reply table. It is occupied from take
// to free; done marks that its reply (or the close's nil) has been put
// into ch, which the slot keeps for the life of the connection. ch
// holds at most that one message, so a send into it never blocks.
type replySlot struct {
	id   uint32
	kind slotKind
	done bool
	ch   chan *replyMsg
}

// replyMsg carries a decoded Reply to the waiting invoker, or a
// LocateReply's status (loc) to a waiting locate. body is the
// pooled control-message buffer the decoder reads from; both return to
// their pools via ORB.freeReply once the reply is fully decoded. The
// header's service contexts are views of body. The slices keep their
// storage across uses of the pooled envelope: vals is where the reply
// values are decoded.
type replyMsg struct {
	hdr      giop.ReplyHeader
	loc      giop.LocateStatus
	dec      *cdr.Decoder
	deposits []*zcbuf.Buffer
	vals     []any
	body     []byte
	err      error
}

// replyMsgPool recycles replyMsg envelopes on the reply hot path.
var replyMsgPool = sync.Pool{New: func() any { return new(replyMsg) }}

// request carries one inbound Request from the reading loop to its
// handler: the connection it arrived on, the header, the decoder over
// the pooled body, the deposits and the trace context, plus storage
// for the servant's arguments and the reply values. From dispatch on it
// belongs to the handler, which returns it with freeRequest once the
// reply is sent, never to the connection: a legacy-tier handler runs
// while the reader reads the next message. The header's byte fields are
// views of body and die with it. The slices keep their storage across
// uses. zc records that the request announced deposits, so its reply
// may carry them too. in holds the storage of the arguments that
// arrived marshaled (unmarshalValues), which the ORB owns and takes
// back with the body once the servant has returned.
type request struct {
	c        *conn
	hdr      giop.RequestHeader
	dec      *cdr.Decoder
	body     []byte
	deposits []*zcbuf.Buffer
	zc       bool
	tc       trace.Context
	args     []any
	in       inArgs
	reply    []any
	send     sendScratch
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

// freeRequest returns a request envelope, its decoder, its body and
// its arguments' storage to their pools. The caller must have consumed
// or released the deposits.
func (o *ORB) freeRequest(r *request) {
	cdr.PutDecoder(r.dec)
	o.putBody(r.body)
	r.in.free(o)
	*r = request{
		hdr:      giop.RequestHeader{ServiceContexts: cleared(r.hdr.ServiceContexts)},
		deposits: cleared(r.deposits),
		args:     cleared(r.args),
		in:       r.in,
		reply:    cleared(r.reply),
	}
	requestPool.Put(r)
}

// cleared empties s for reuse, dropping the references it held so a
// pooled envelope pins neither a body nor a buffer.
func cleared[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// timerPool recycles timeout timers: time.After allocates a timer and
// channel per call, which would dominate otherwise allocation-free
// reply waits. Requires the Go 1.23+ timer semantics (go directive >=
// 1.23), under which Stop guarantees no stale value is ever delivered,
// so a pooled timer's channel is always empty.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// freeReply returns a reply envelope and its pooled resources. The
// caller must have consumed or released the deposits already.
func (o *ORB) freeReply(msg *replyMsg) {
	if msg == nil {
		return
	}
	if msg.dec != nil {
		cdr.PutDecoder(msg.dec)
	}
	if msg.body != nil {
		o.putBody(msg.body)
	}
	*msg = replyMsg{
		hdr:      giop.ReplyHeader{ServiceContexts: cleared(msg.hdr.ServiceContexts)},
		deposits: cleared(msg.deposits),
		vals:     cleared(msg.vals),
	}
	replyMsgPool.Put(msg)
}

// newConn wraps a connection. Only a client connection gets the reply
// table: replies never arrive on a server one. A connection
// that can carry a ring (the shm transport's) keeps it as ring, with
// its stream view as ctrl.
func newConn(o *ORB, tc transport.Conn, isServer bool) *conn {
	c := &conn{
		orb:      o,
		ctrl:     tc,
		isServer: isServer,
	}
	if rc, ok := tc.(transport.RingConn); ok {
		c.ring, c.ctrl = rc, rc.Stream()
	}
	if !isServer {
		c.slots = make([]replySlot, replySlots0)
	}
	c.frame.orb = o
	c.onLeaseExpire = c.markRingDown
	c.onInlineExpire = func() { c.close(errors.New("orb: inline deposit stalled")) }
	return c
}

// markRingDown retires the connection's shm ring (once) while the
// stream keeps running: subsequent sends marshal payloads the standard
// way, and subsequent ring announcements are refused. Retiring the ring
// also unblocks a reader parked in a claim, fails the peer's ring
// operations, and unmaps the segment once its claimed views are gone.
func (c *conn) markRingDown() {
	if c.ringDown.Swap(true) {
		return
	}
	if c.ring != nil {
		c.ring.CloseRing()
	}
}

// hasRing reports whether the connection's deposits go through a ring:
// it has one, installed by the dialer's promotion and not retired.
func (c *conn) hasRing() bool { return c.ring != nil && c.ring.HasRing() }

// errDataWrite marks a send failure confined to the shm ring; the
// stream already carried the message, so the caller can degrade to the
// marshaled path instead of tearing the connection down.
type errDataWrite struct{ err error }

func (e *errDataWrite) Error() string { return "orb: ring deposit: " + e.err.Error() }
func (e *errDataWrite) Unwrap() error { return e.err }

// errDepositTransfer marks a failed inbound ring transfer (aborted or
// mis-sized deposit, retired ring, or a ring announcement on a
// connection without one). The stream is still framed correctly, so
// the receiver degrades instead of killing the connection.
type errDepositTransfer struct{ err error }

func (e *errDepositTransfer) Error() string { return "orb: deposit transfer: " + e.err.Error() }
func (e *errDepositTransfer) Unwrap() error { return e.err }

// close tears the connection down exactly once and fails every waiter:
// each occupied slot not yet answered gets a nil delivery, which its
// waiter reads as COMM_FAILURE. take checks err under mu, so no slot is
// taken after that sweep.
func (c *conn) close(err error) {
	c.closeOnce.Do(func() {
		if err == nil {
			err = errors.New("orb: connection closed")
		}
		c.mu.Lock()
		c.err = err
		onClose := c.onClose
		c.mu.Unlock()
		if onClose != nil {
			onClose()
		}
		c.closed.Store(true)
		_ = c.ctrl.Close()
		c.mu.Lock()
		for i := range c.slots {
			if s := &c.slots[i]; s.kind != slotFree && !s.done {
				s.done = true
				s.ch <- nil
			}
		}
		c.mu.Unlock()
	})
}

// setOnClose installs the close hook (see the field comment). A hook
// installed after close has already run never fires; the installer
// must detect the dead connection itself (the engine does so when fd
// registration fails on the closed socket).
func (c *conn) setOnClose(fn func()) {
	c.mu.Lock()
	c.onClose = fn
	c.mu.Unlock()
}

// healthy reports whether the connection is still usable.
func (c *conn) healthy() bool { return !c.closed.Load() }

// take hands out the next request id whose reply slot is free, so a
// long-running call is never overwritten, and occupies that slot with a
// waiter of the given kind; slotFree (a oneway) takes the id alone. Ids
// are per connection, as GIOP scopes them. It returns the channel the
// answer arrives on. A full table doubles.
func (c *conn) take(kind slotKind) (uint32, chan *replyMsg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	for probed := 0; ; probed++ {
		if probed == len(c.slots) {
			// len(slots) consecutive ids found no free slot: it is full.
			c.grow()
		}
		c.nextID++
		s := c.slot(c.nextID)
		if s.kind != slotFree {
			continue
		}
		if kind == slotFree {
			return c.nextID, nil, nil
		}
		if s.ch == nil {
			s.ch = make(chan *replyMsg, 1)
		}
		s.id, s.kind = c.nextID, kind
		return s.id, s.ch, nil
	}
}

// slot returns the table entry request id maps to (mu held).
func (c *conn) slot(id uint32) *replySlot {
	return &c.slots[id&uint32(len(c.slots)-1)]
}

// grow doubles the reply table (mu held): each occupied slot moves to
// its id's index in the new one.
func (c *conn) grow() {
	slots := make([]replySlot, 2*len(c.slots))
	for _, s := range c.slots {
		if s.kind != slotFree {
			slots[s.id&uint32(len(slots)-1)] = s
		}
	}
	c.slots = slots
}

// free empties the slot of request id. A delivery its waiter never
// received — one that raced a timeout — is reaped and released here.
// It reports whether a reply or the close reached the slot.
func (c *conn) free(id uint32) bool {
	c.mu.Lock()
	s := c.slot(id)
	done := s.done
	var msg *replyMsg
	select {
	case msg = <-s.ch:
	default:
	}
	s.kind, s.done = slotFree, false
	c.mu.Unlock()
	if msg != nil {
		releaseAll(msg.deposits)
		c.orb.freeReply(msg)
	}
	return done
}

// deliver hands msg to the waiter of its request id's slot, or
// releases it when no waiter of that id is left (a reply to a timed-out
// call, or a duplicate). An answer of the other kind to a live id is a
// protocol error. It reports whether the connection lives on.
func (c *conn) deliver(msg *replyMsg, kind slotKind) bool {
	id := msg.hdr.RequestID
	c.mu.Lock()
	s := c.slot(id)
	live := s.kind != slotFree && s.id == id
	if !live || s.kind != kind || s.done {
		ok := !live || s.kind == kind
		c.mu.Unlock()
		releaseAll(msg.deposits)
		c.orb.freeReply(msg)
		if !ok {
			c.protocolError("answer of the wrong kind for request %d", id)
		}
		return ok
	}
	s.done = true
	s.ch <- msg
	c.mu.Unlock()
	if kind == slotRequest {
		c.orb.stats.RepliesReceived.Add(1)
	}
	return true
}

// tooLarge reports a message over the configured size bound.
func tooLarge(size, max int) error {
	return fmt.Errorf("message size %d exceeds limit %d", size, max)
}

// sendMessage writes a GIOP message that carries no deposits (header
// gather-joined with body) under the send mutex. Every message leaves
// as one GIOP 1.0 frame, whatever its size.
func (c *conn) sendMessage(t giop.MsgType, body []byte) error {
	return c.send(t, body, nil, false, trace.Context{}, "", 0)
}

// traceCtx extracts the trace context carried in a message's service
// contexts (zero when the peer sent none).
func (c *conn) traceCtx(scs []giop.ServiceContext) trace.Context {
	if c.orb.tracer == nil {
		return trace.Context{}
	}
	tcw, ok := giop.FindTraceContext(scs)
	if !ok {
		return trace.Context{}
	}
	return trace.Context{Trace: trace.ID(tcw.TraceID), Span: trace.ID(tcw.SpanID)}
}

// send writes a GIOP message and its deposit train under the send
// mutex, so stream and ring stay ordered. inline (the caller's answer
// to !c.hasRing(), which it also marked in the announcement, so the
// two cannot disagree) sends the train as the trailing segments of the
// stream write; otherwise the train is deposited into the ring after
// the message. When tc is valid, the control write is recorded as a
// span of the given kind (control_send client-side, reply_send
// server-side), counting an inline train in its bytes, and the ring
// deposit as an shm.deposit span, both parented on tc's span.
func (c *conn) send(t giop.MsgType, body []byte, deposits []transport.Segment, inline bool,
	tc trace.Context, op string, kind trace.Kind) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	tr := c.orb.tracer
	var t0 int64
	if tc.Valid() {
		t0 = trace.Now()
	}
	if max := c.orb.maxMessageSize(); len(body) > max {
		return tooLarge(len(body), max)
	}
	giop.EncodeHeader(c.hdrBuf[:], giop.Header{
		Major: 1, Minor: 0,
		Flags: byte(cdr.NativeOrder),
		Type:  t,
		Size:  uint32(len(body)),
	})
	// Header, body and an inline train leave in one control write.
	var train []transport.Segment
	if inline {
		train, deposits = deposits, nil
	}
	c.segs = append(c.segs, c.hdrBuf[:], body)
	trainBytes, err := c.writeTrainLocked(c.ctrl, train)
	if err != nil {
		return err
	}
	if tc.Valid() {
		tr.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: kind, Op: op,
			Bytes: int64(len(body)) + trainBytes, Start: t0, Dur: trace.Now() - t0,
		})
	}
	if len(train) > 0 {
		c.countTrainSent(len(train), trainBytes)
		if tc.Valid() {
			tr.DepositBytes.Record(trainBytes)
		}
	}
	if len(deposits) > 0 {
		if !c.hasRing() {
			return &errDataWrite{err: errors.New("ring down")}
		}
		if tc.Valid() {
			t0 = trace.Now()
		}
		n, err := c.writeTrainLocked(c.ring, deposits)
		if err != nil {
			return &errDataWrite{err: err}
		}
		c.countTrainSent(len(deposits), n)
		c.orb.stats.ShmDeposits.Add(1)
		c.orb.stats.ShmDepositBytes.Add(n)
		if tc.Valid() {
			tr.Record(trace.Span{
				Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindShmDeposit,
				Op: op, Bytes: n, Start: t0, Dur: trace.Now() - t0,
			})
			tr.DepositBytes.Record(n)
		}
	}
	return nil
}

// sendScratch is the storage an outbound request or reply is built in
// before its send: its service contexts, its deposit train and the
// encoded deposit and trace contexts. It belongs to the pooled envelope of
// the message (the client's Call, the server's request), so a steady
// state send allocates none of it; a train or an announcement too
// large for it spills to the heap. Nothing in it outlives the send,
// which is synchronous, and the envelope's reset drops its references.
type sendScratch struct {
	contexts [2]giop.ServiceContext
	segs     [4]transport.Segment
	sizes    [4]uint32
	deposit  [64]byte
	trace    [16]byte
}

// appendTrace appends tc as a trace service context encoded in the
// scratch. A zero context appends nothing, keeping untraced messages
// byte-identical. Replies echo the request's context this way, so the
// client side of the trace can attribute the reply's deposits.
func (x *sendScratch) appendTrace(scs []giop.ServiceContext, tc trace.Context) []giop.ServiceContext {
	if !tc.Valid() {
		return scs
	}
	return append(scs, giop.TraceContext{
		TraceID: uint64(tc.Trace), SpanID: uint64(tc.Span),
	}.EncodeTo(x.trace[:]))
}

// countTrainSent counts one sent deposit train of segs segments and n
// bytes, inline or into the ring.
func (c *conn) countTrainSent(segs int, n int64) {
	s := &c.orb.stats
	s.DepositsSent.Add(1)
	s.DepositBytesSent.Add(n)
	if segs >= 2 {
		// A multi-segment train: one batch carried N payload blocks (the
		// scatter/gather coalescing win).
		s.GatherDeposits.Add(1)
		s.GatherSegments.Add(int64(segs))
	}
}

// writeTrainLocked writes the segments already gathered in c.segs —
// a message's header and body on the stream, none on the ring — and
// then train, on w in one call, and returns the train's bytes
// (sendMu held). With byte segments only it is one gather write. A
// train with file regions goes through transport.WriteTrain, which
// sends them by sendfile on tcp and reads them into memory everywhere
// else — a payload copy, counted as one per region — and refuses a
// region past the end of its file before anything is written.
func (c *conn) writeTrainLocked(w transport.Conn, train []transport.Segment) (int64, error) {
	var n int64
	files := 0
	for i := range train {
		n += train[i].Len()
		if train[i].File != nil {
			files++
		}
	}
	if files == 0 {
		for i := range train {
			c.segs = append(c.segs, train[i].B)
		}
		_, err := w.WriteGather(c.segs...)
		clear(c.segs)
		c.segs = c.segs[:0]
		return n, err
	}
	segs := make([]transport.Segment, 0, len(c.segs)+len(train))
	for _, b := range c.segs {
		segs = append(segs, transport.Segment{B: b})
	}
	clear(c.segs)
	c.segs = c.segs[:0]
	_, copied, err := transport.WriteTrain(w, append(segs, train...))
	if copied > 0 {
		c.orb.stats.PayloadCopies.Add(int64(files))
		c.orb.stats.PayloadCopyBytes.Add(copied)
	}
	return n, err
}

// readDeposits consumes the direct-deposit payloads announced by a
// ZCDeposit service context: for each advertised size it takes a
// page-aligned buffer from the pool and reads the payload straight
// into it — the zero-copy receive of §4.5 — or claims it in place from
// the ring. announced reports whether the message carried the context.
// When tc is valid, a ring transfer is recorded as one deposit_recv (or
// shm.claim) span, Err marking an abort. The buffers are appended to
// bufs[:0], the message envelope's storage. The announced total is
// bounded by giop.MaxDepositTotal before any buffer is taken.
func (c *conn) readDeposits(bufs []*zcbuf.Buffer, contexts []giop.ServiceContext,
	tc trace.Context, op string) (_ []*zcbuf.Buffer, announced bool, _ error) {
	bufs = bufs[:0]
	data, ok := giop.Find(contexts, giop.ZCDepositContextID)
	if !ok {
		return bufs, false, nil
	}
	di := &c.announced
	if err := di.Decode(data); err != nil {
		return nil, true, err
	}
	total, err := di.Total()
	if err != nil {
		return nil, true, err
	}
	if di.Inline {
		bufs, err = c.readInline(bufs, di, total, tc)
		return bufs, true, err
	}
	if !c.hasRing() {
		return nil, true, &errDepositTransfer{err: errors.New("ring announced on a connection without one")}
	}
	if len(di.Sizes) == 0 {
		// Pure announcement: the reply may carry deposits.
		return bufs, true, nil
	}
	var t0, got int64
	if tc.Valid() {
		t0 = trace.Now()
	}
	ttl := c.orb.leaseTTL()
	for _, size := range di.Sizes {
		b, err := c.claim(int(size), ttl)
		if err != nil {
			releaseAll(bufs)
			c.recordDepositRecv(tc, op, t0, got, true)
			return nil, true, &errDepositTransfer{err: fmt.Errorf("shm claim: %w", err)}
		}
		got += int64(size)
		bufs = append(bufs, b)
		c.orb.stats.DepositsReceived.Add(1)
		c.orb.stats.DepositBytesRecv.Add(int64(size))
		c.orb.stats.ShmClaims.Add(1)
	}
	if len(di.Sizes) >= 2 {
		c.orb.stats.GatherScatters.Add(1)
	}
	c.recordDepositRecv(tc, op, t0, got, false)
	if tc.Valid() {
		c.orb.tracer.DepositBytes.Record(got)
	}
	return bufs, true, nil
}

// readInline receives a train that rode the stream behind its message.
// Each segment lands in a page-aligned pool buffer — on a speculation
// hit the very buffer the message's read already filled — and the rest
// is read from the stream straight into it. Any failure tears the
// stream (an error that is not an errDepositTransfer, so the caller
// closes the connection).
func (c *conn) readInline(bufs []*zcbuf.Buffer, di *giop.DepositInfo, total int64,
	tc trace.Context) ([]*zcbuf.Buffer, error) {
	if len(di.Sizes) == 0 {
		// Pure announcement: the reply may carry deposits.
		return bufs, nil
	}
	f := &c.frame
	f.settle(inlineTrainKey(di.Sizes))
	ttl := c.orb.leaseTTL()
	for _, size := range di.Sizes {
		b, got, err := f.trainSegment(int(size))
		if err != nil {
			releaseAll(bufs)
			return nil, err
		}
		if rest := b.Bytes()[got:]; len(rest) > 0 {
			// A peer that stops mid-train stalls the control stream
			// itself: the lease's expiry closes the connection, which
			// unblocks this read.
			lid := c.orb.leases.Grant(b, time.Now().Add(ttl), c.onInlineExpire)
			_, err = io.ReadFull(c.ctrl, rest)
			c.orb.leases.Settle(lid)
			if err != nil {
				b.Release()
				releaseAll(bufs)
				return nil, fmt.Errorf("inline deposit read: %w", err)
			}
		}
		bufs = append(bufs, b)
		c.orb.stats.DepositsReceived.Add(1)
		c.orb.stats.DepositBytesRecv.Add(int64(size))
	}
	if len(di.Sizes) >= 2 {
		c.orb.stats.GatherScatters.Add(1)
	}
	if tc.Valid() {
		c.orb.tracer.DepositBytes.Record(total)
	}
	return bufs, nil
}

// claim takes one announced payload from the connection's ring in
// place: the next ring record, which must be size bytes, as a Buffer
// whose final Release returns the ring credit. A lease covers the
// blocking wait; its expiry retires the ring, which unblocks the claim.
func (c *conn) claim(size int, ttl time.Duration) (*zcbuf.Buffer, error) {
	lid := c.orb.leases.GrantFunc(size, time.Now().Add(ttl), c.onLeaseExpire)
	view, rel, ok, err := c.ring.ReadDirect(size)
	c.orb.leases.Settle(lid)
	if err == nil && !ok {
		err = errors.New("ring retired")
	}
	if err != nil {
		return nil, err
	}
	return zcbuf.WrapShared(view, rel), nil
}

// recordDepositRecv emits the shm.claim span for one announced ring
// transfer (no-op when tc is zero).
func (c *conn) recordDepositRecv(tc trace.Context, op string, t0, bytes int64, failed bool) {
	if !tc.Valid() {
		return
	}
	c.orb.tracer.Record(trace.Span{
		Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindShmClaim,
		Op: op, Err: failed, Bytes: bytes, Start: t0, Dur: trace.Now() - t0,
	})
}

// releaseAll releases every buffer in bufs and clears the slice, so
// reused storage keeps no reference to a released buffer.
func releaseAll(bufs []*zcbuf.Buffer) {
	for _, b := range bufs {
		b.Release()
	}
	clear(bufs)
}

// readLoop processes inbound messages until the connection dies — the
// goroutine-per-connection tier, and every client. It fills the
// framer's regions with blocking scatter reads — one per message when
// the framer's prediction holds — replaying carried bytes first; the
// event engine drives the same framer with nonblocking reads and feeds
// the same handleMessage from its dispatcher pool.
func (c *conn) readLoop() {
	f := &c.frame
	defer f.drop()
	for {
		regions, n := f.next()
		if n == 0 {
			var err error
			if n, err = c.ctrl.ReadScatter(regions...); err != nil {
				c.close(err)
				return
			}
		}
		hdr, body, ok, err := f.advance(n)
		if err != nil {
			c.protocolError("%v", err)
			return
		}
		if ok && !c.handleMessage(hdr, body, false) {
			return
		}
	}
}

// handleMessage processes one complete logical GIOP message (fragments
// already reassembled) and consumes body (returning it to the pool on
// every path). inline selects the dispatch mode for requests: the
// event engine's workers run the servant on the calling goroutine
// (bounded concurrency = pool size), the legacy tier hands it to a
// parked handler goroutine (see dispatchRequest). It reports false when
// the connection is finished (closed, or a fatal protocol error was
// answered).
func (c *conn) handleMessage(hdr giop.Header, body []byte, inline bool) bool {
	dec := cdr.GetDecoder(hdr.Order(), giop.HeaderSize, body)
	switch hdr.Type {
	case giop.MsgRequest:
		if !c.isServer {
			c.freeInline(dec, body)
			c.protocolError("Request on client connection")
			return false
		}
		r := requestPool.Get().(*request)
		r.dec, r.body = dec, body
		req := &r.hdr
		if err := req.Unmarshal(dec, c.orb.internOp); err != nil {
			c.orb.freeRequest(r)
			c.protocolError("bad request header: %v", err)
			return false
		}
		tc := c.traceCtx(req.ServiceContexts)
		r.tc = tc
		deposits, zc, err := c.readDeposits(r.deposits, req.ServiceContexts, tc, req.Operation)
		r.zc = zc
		if err != nil {
			var dt *errDepositTransfer
			if asErr(err, &dt) {
				// The ring transfer aborted but the stream is still
				// framed: retire the ring, answer TRANSIENT, and keep
				// serving (degraded) instead of killing every
				// in-flight call on the connection.
				c.orb.stats.DepositAborts.Add(1)
				c.markRingDown()
				if tc.Valid() {
					c.orb.tracer.Record(trace.Span{
						Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindFallback,
						Op: req.Operation, Err: true, Start: trace.Now(),
					})
				}
				c.orb.replySystemException(c, r,
					&SystemException{Name: "TRANSIENT", Completed: CompletedNo})
				c.orb.freeRequest(r)
				return true
			}
			// A malformed deposit announcement is a protocol error.
			c.orb.freeRequest(r)
			c.protocolError("deposit: %v", err)
			return false
		}
		r.deposits = deposits
		c.dispatchRequest(r, inline)
		return true

	case giop.MsgReply:
		if c.isServer {
			c.freeInline(dec, body)
			c.protocolError("Reply on server connection")
			return false
		}
		msg := replyMsgPool.Get().(*replyMsg)
		msg.dec, msg.body = dec, body
		rep := &msg.hdr
		if err := rep.Unmarshal(dec); err != nil {
			c.orb.freeReply(msg)
			c.protocolError("bad reply header: %v", err)
			return false
		}
		// The server echoes the request's trace context in its reply,
		// so the reply-side deposit read lands in the same trace.
		tc := c.traceCtx(rep.ServiceContexts)
		deposits, _, err := c.readDeposits(msg.deposits, rep.ServiceContexts, tc, "")
		if err != nil {
			var dt *errDepositTransfer
			if asErr(err, &dt) {
				// The reply's ring payload was lost; fail just this
				// call (TRANSIENT — the server did execute it) and
				// retire the ring, keeping the connection and its
				// other in-flight calls alive.
				c.orb.stats.DepositAborts.Add(1)
				c.markRingDown()
				if tc.Valid() {
					c.orb.tracer.Record(trace.Span{
						Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindFallback,
						Err: true, Start: trace.Now(),
					})
				}
				msg.err = &SystemException{Name: "TRANSIENT", Completed: CompletedMaybe}
				return c.deliver(msg, slotRequest)
			}
			c.orb.freeReply(msg)
			c.protocolError("reply deposit: %v", err)
			return false
		}
		msg.deposits = deposits
		return c.deliver(msg, slotRequest)

	case giop.MsgLocateRequest:
		if !c.isServer {
			c.freeInline(dec, body)
			c.protocolError("LocateRequest on client connection")
			return false
		}
		lreq, err := giop.UnmarshalLocateRequestHeader(dec)
		c.freeInline(dec, body)
		if err != nil {
			c.protocolError("bad locate request: %v", err)
			return false
		}
		status := giop.LocateUnknownObject
		if _, ok := c.orb.servant(string(lreq.ObjectKey)); ok {
			status = giop.LocateObjectHere
		}
		e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
		lrep := giop.LocateReplyHeader{RequestID: lreq.RequestID, Status: status}
		lrep.Marshal(e)
		err = c.sendMessage(giop.MsgLocateReply, e.Bytes())
		cdr.PutEncoder(e)
		if err != nil {
			c.close(err)
			return false
		}
		return true

	case giop.MsgLocateReply:
		if c.isServer {
			c.freeInline(dec, body)
			c.protocolError("LocateReply on server connection")
			return false
		}
		lrep, err := giop.UnmarshalLocateReplyHeader(dec)
		c.freeInline(dec, body)
		if err != nil {
			c.protocolError("bad locate reply: %v", err)
			return false
		}
		msg := replyMsgPool.Get().(*replyMsg)
		msg.hdr.RequestID, msg.loc = lrep.RequestID, lrep.Status
		return c.deliver(msg, slotLocate)

	case giop.MsgCancelRequest:
		// Best-effort semantics: the reply is simply discarded by
		// the client; nothing to do server-side in this ORB.
		c.freeInline(dec, body)
		return true

	case giop.MsgCloseConnection:
		c.freeInline(dec, body)
		c.close(io.EOF)
		return false

	case giop.MsgMessageError:
		c.freeInline(dec, body)
		c.close(errors.New("orb: peer reported message error"))
		return false

	default:
		c.freeInline(dec, body)
		c.protocolError("unknown message type %v", hdr.Type)
		return false
	}
}

// dispatchRequest runs admission control and hands one request to the
// servant layer, which from here on owns r. Requests beyond the
// MaxInFlight cap are shed with TRANSIENT instead of queueing (the
// deposits were already consumed, so the stream's framing survives the
// rejection). inline=true dispatches on the calling goroutine — the
// event engine's bounded worker pool. The legacy tier keeps
// per-connection pipelining by handing r to a handler goroutine: one
// parked in runHandler if there is one, else a new one. The send never
// blocks and never queues: it succeeds only into a handler that is
// waiting on the unbuffered channel at that moment.
func (c *conn) dispatchRequest(r *request, inline bool) {
	o := c.orb
	if !o.acquireSlot() {
		releaseAll(r.deposits)
		o.shedRequest(c, r)
		o.freeRequest(r)
		return
	}
	r.c = c
	if inline {
		o.serve(r)
		return
	}
	select {
	case o.handoff <- r:
	default:
		o.wg.Add(1)
		go o.runHandler(r)
	}
}

// maxIdleHandlers caps the legacy tier's parked handler goroutines,
// ORB-wide: a handler that finishes a request while this many others
// wait exits instead of parking, so a burst leaves at most this many
// goroutines (and their grown stacks) behind.
const maxIdleHandlers = 16

// runHandler is one legacy-tier handler goroutine: it serves r, then
// parks on the hand-off channel for the next request of any
// connection, until maxIdleHandlers others are parked already or the
// ORB shuts down. idleHandlers counts a handler from before it parks
// to after it wakes, so it may read one high while a handler is on its
// way in or out; a dispatcher never consults it.
func (o *ORB) runHandler(r *request) {
	defer o.wg.Done()
	for {
		o.serve(r)
		if o.idleHandlers.Add(1) > maxIdleHandlers {
			o.idleHandlers.Add(-1)
			return
		}
		select {
		case r = <-o.handoff:
			o.idleHandlers.Add(-1)
		case <-o.done:
			o.idleHandlers.Add(-1)
			return
		}
	}
}

// serve runs one admitted request to its reply and returns its
// dispatch slot and envelope.
func (o *ORB) serve(r *request) {
	o.handleRequest(r.c, r)
	o.releaseSlot()
	o.freeRequest(r)
}

// freeInline returns a message's decoder and body buffer to their
// pools once the read loop (or a request handler) is done with them.
func (c *conn) freeInline(dec *cdr.Decoder, body []byte) {
	cdr.PutDecoder(dec)
	c.orb.putBody(body)
}

// protocolError reports a fatal protocol violation to the peer and
// closes the connection.
func (c *conn) protocolError(format string, args ...any) {
	err := fmt.Errorf("orb: protocol error: "+format, args...)
	_ = c.sendMessage(giop.MsgMessageError, nil)
	c.close(err)
}

// sendCloseConnection notifies the peer of an orderly shutdown.
func (c *conn) sendCloseConnection() {
	_ = c.sendMessage(giop.MsgCloseConnection, nil)
}

// locate issues a LocateRequest for the given object key and returns
// the peer's LocateReply status. It waits like a call: in a reply slot,
// through awaitReply.
func (c *conn) locate(key []byte, timeout time.Duration) (giop.LocateStatus, error) {
	id, ch, err := c.take(slotLocate)
	if err != nil {
		return 0, err
	}
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.LocateRequestHeader{RequestID: id, ObjectKey: key}).Marshal(e)
	err = c.sendMessage(giop.MsgLocateRequest, e.Bytes())
	cdr.PutEncoder(e)
	if err != nil {
		c.free(id)
		return 0, err
	}
	msg, err := c.awaitReply(nil, id, ch, timeout)
	if err != nil {
		return 0, err
	}
	status := msg.loc
	c.orb.freeReply(msg)
	return status, nil
}

// awaitReply blocks for the answer in request id's slot until the
// per-call deadline (ctx) or the ORB call timeout expires, and frees
// the slot on every path. A nil delivery is the connection's close.
func (c *conn) awaitReply(ctx context.Context, id uint32, ch chan *replyMsg,
	timeout time.Duration) (*replyMsg, error) {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	t := getTimer(timeout)
	select {
	case msg := <-ch:
		putTimer(t)
		c.free(id)
		if msg == nil {
			return nil, &SystemException{Name: "COMM_FAILURE", Completed: CompletedMaybe}
		}
		if msg.err != nil {
			err := msg.err
			c.orb.freeReply(msg)
			return nil, err
		}
		return msg, nil
	case <-t.C:
		putTimer(t)
		c.orb.stats.Timeouts.Add(1)
		return nil, c.abandon(id, &SystemException{Name: "TIMEOUT", Completed: CompletedMaybe})
	case <-ctxDone:
		putTimer(t)
		return nil, c.abandon(id, ctx.Err())
	}
}

// abandon gives up on a pending answer: it frees the slot, reaping a
// delivery that raced the abandonment, and when none had arrived sends
// a best-effort GIOP CancelRequest so the server can drop the now
// unwanted reply early. It returns failErr for the caller.
func (c *conn) abandon(id uint32, failErr error) error {
	if c.free(id) {
		return failErr
	}
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.CancelRequestHeader{RequestID: id}).Marshal(e)
	err := c.sendMessage(giop.MsgCancelRequest, e.Bytes())
	cdr.PutEncoder(e)
	if err == nil {
		c.orb.stats.CancelsSent.Add(1)
	}
	return failErr
}
