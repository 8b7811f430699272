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

// conn is one GIOP connection (the paper's GIOPConn): a control
// byte-stream carrying GIOP messages and, on a stream plane, their
// direct-deposit payloads too; with a shared-memory data plane, an
// associated data channel carries the payloads instead.
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
// one. On a connection without a data channel — every stream plane —
// the train rides the control writev behind its message (inline),
// whatever its size; on a ring connection it is deposited into the
// ring. No plane keeps a reference to a segment once that call
// returns. What the ring can do on the receive side is discovered
// once, in setData.
//
// The pending-reply table is striped across pendingShards independent
// locks so concurrent invokers sharing the connection do not serialize
// on a single mutex (per-message software overhead, the modern cousin
// of the paper's per-byte copies).
type conn struct {
	orb  *ORB
	ctrl transport.Conn
	// data is the shm data channel, resolved lazily on the server side;
	// nil on a stream plane, whose trains ride ctrl.
	data      transport.Conn
	dataToken uint64
	isServer  bool
	// zc marks a client connection whose requests may carry deposits
	// (the peer offered them and the architectures match). A server
	// learns the same from each request's announcement.
	zc bool

	// dataDown marks the shm data channel dead while the control stream
	// stays usable: the graceful-degradation state in which deposits
	// fall back to the standard marshaled path (docs/FAULTS.md).
	dataDown atomic.Bool
	// direct is the data channel's ring-view claim capability,
	// discovered once by setData.
	direct transport.DirectReader
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

	mu            sync.Mutex // guards err, pendingLocate, and onClose
	pendingLocate map[uint32]chan locateResult
	err           error
	// onClose runs exactly once during close, before the control stream
	// is torn down: the event engine deregisters the connection's fd
	// there while the fd is still open (a deregistration after Close
	// could hit a reused fd number).
	onClose func()

	pending [pendingShards]pendingShard

	closeOnce sync.Once
}

// pendingShards stripes the reply table; must be a power of two.
const pendingShards = 16

// pendingShard is one stripe of the pending-reply table, padded so
// adjacent shards do not share a cache line.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint32]chan *replyMsg
	_  [40]byte
}

// locateResult carries a LocateReply (or the connection's close error)
// to the waiting locate caller.
type locateResult struct {
	hdr giop.LocateReplyHeader
	err error
}

// replyMsg carries a decoded Reply to the waiting invoker. body is the
// pooled control-message buffer the decoder reads from; both return to
// their pools via ORB.freeReply once the reply is fully decoded. The
// header's service contexts are views of body. The slices keep their
// storage across uses of the pooled envelope: vals is where the reply
// values are decoded.
type replyMsg struct {
	hdr      giop.ReplyHeader
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
// may carry them too. owned holds the storage of the plain octet
// sequence arguments (unmarshalValues), which the ORB owns and takes
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
	owned    [][]byte
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
	for _, b := range r.owned {
		o.putBody(b)
	}
	*r = request{
		hdr:      giop.RequestHeader{ServiceContexts: cleared(r.hdr.ServiceContexts)},
		deposits: cleared(r.deposits),
		args:     cleared(r.args),
		owned:    cleared(r.owned),
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

// replyChanPool recycles the single-slot reply channels handed to
// invokers. A channel is only returned to the pool by the receiver
// after it has consumed the (sole) message, never on the timeout path,
// so a pooled channel is always empty.
var replyChanPool = sync.Pool{New: func() any { return make(chan *replyMsg, 1) }}

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

// newConn wraps a control stream. Only a client connection gets the
// reply and locate tables: replies never arrive on a server one.
func newConn(o *ORB, tc transport.Conn, isServer bool) *conn {
	c := &conn{
		orb:      o,
		ctrl:     tc,
		isServer: isServer,
	}
	if !isServer {
		c.pendingLocate = make(map[uint32]chan locateResult)
		for i := range c.pending {
			c.pending[i].m = make(map[uint32]chan *replyMsg)
		}
	}
	c.frame.orb = o
	c.onLeaseExpire = c.markDataDown
	c.onInlineExpire = func() { c.close(errors.New("orb: inline deposit stalled")) }
	return c
}

// markDataDown retires the connection's shm data channel (once) while
// the control stream keeps running: subsequent sends marshal payloads
// the standard way, and subsequent deposit announcements are refused.
// The close also unblocks any reader parked in a ring claim or read.
func (c *conn) markDataDown() {
	if c.dataDown.Swap(true) {
		return
	}
	if c.data != nil {
		_ = c.data.Close()
	}
	if c.isServer && c.dataToken != 0 {
		c.orb.dropDataChan(c.dataToken)
	}
}

// pendingEntries counts registered reply waiters across all shards
// (tests use it to prove the table does not leak).
func (c *conn) pendingEntries() int {
	n := 0
	for i := range c.pending {
		s := &c.pending[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// errDataWrite marks a send failure confined to the shm data channel;
// the control stream already carried the message, so the caller can
// degrade to the marshaled path instead of tearing the connection down.
type errDataWrite struct{ err error }

func (e *errDataWrite) Error() string { return "orb: data channel write: " + e.err.Error() }
func (e *errDataWrite) Unwrap() error { return e.err }

// errDepositTransfer marks a failed inbound ring transfer (aborted
// deposit, dead data channel, token that never arrived or names no
// data channel). The control stream is still framed correctly, so the
// receiver degrades instead of killing the connection.
type errDepositTransfer struct{ err error }

func (e *errDepositTransfer) Error() string { return "orb: deposit transfer: " + e.err.Error() }
func (e *errDepositTransfer) Unwrap() error { return e.err }

// shard returns the pending-table stripe for a request id.
func (c *conn) shard(id uint32) *pendingShard {
	return &c.pending[id&(pendingShards-1)]
}

// close tears the connection down exactly once and fails all waiters:
// pending reply and locate waiters alike observe the close error. The
// reply and locate tables are dropped, not replaced: register and
// locate check closed and err under the locks that guard the tables,
// so nothing writes to a nil one.
func (c *conn) close(err error) {
	c.closeOnce.Do(func() {
		if err == nil {
			err = errors.New("orb: connection closed")
		}
		c.mu.Lock()
		c.err = err
		locWaiters := c.pendingLocate
		c.pendingLocate = nil
		onClose := c.onClose
		c.mu.Unlock()
		if onClose != nil {
			onClose()
		}
		// Publish the closed flag before sweeping the shards: register
		// either lands in a shard before the sweep (and is failed
		// below) or observes closed afterwards.
		c.closed.Store(true)
		var waiters []chan *replyMsg
		for i := range c.pending {
			s := &c.pending[i]
			s.mu.Lock()
			for _, ch := range s.m {
				waiters = append(waiters, ch)
			}
			s.m = nil
			s.mu.Unlock()
		}
		commErr := &SystemException{Name: "COMM_FAILURE", Completed: CompletedMaybe}
		for _, ch := range locWaiters {
			ch <- locateResult{err: commErr}
		}
		_ = c.ctrl.Close()
		if c.data != nil {
			_ = c.data.Close()
		}
		if c.isServer && c.dataToken != 0 {
			c.orb.dropDataChan(c.dataToken)
		}
		for _, ch := range waiters {
			ch <- &replyMsg{err: commErr}
		}
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

// closeErr returns the error the connection closed with.
func (c *conn) closeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		return errors.New("orb: connection closed")
	}
	return c.err
}

// register adds a pending reply slot for a request id.
func (c *conn) register(id uint32) (chan *replyMsg, error) {
	s := c.shard(id)
	s.mu.Lock()
	if c.closed.Load() {
		s.mu.Unlock()
		return nil, c.closeErr()
	}
	ch := replyChanPool.Get().(chan *replyMsg)
	s.m[id] = ch
	s.mu.Unlock()
	return ch, nil
}

// unregister abandons a pending reply slot (timeout path). It reports
// whether the slot was still registered; if not, a delivery is already
// in flight and the channel must not be recycled.
func (c *conn) unregister(id uint32) bool {
	s := c.shard(id)
	s.mu.Lock()
	_, ok := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	return ok
}

// deliver hands a reply to its waiter, releasing everything if nobody
// is waiting anymore.
func (c *conn) deliver(msg *replyMsg) {
	s := c.shard(msg.hdr.RequestID)
	s.mu.Lock()
	ch := s.m[msg.hdr.RequestID]
	delete(s.m, msg.hdr.RequestID)
	s.mu.Unlock()
	if ch == nil {
		releaseAll(msg.deposits)
		c.orb.freeReply(msg)
		return
	}
	c.orb.stats.RepliesReceived.Add(1)
	ch <- msg
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
// mutex, so control and ring stay ordered. inline (the caller's answer
// to c.data == nil, which it also marked in the announcement, so the
// two cannot disagree) sends the train as the trailing segments of the
// control write; otherwise the train is deposited into the ring after
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
		if c.dataDown.Load() {
			return &errDataWrite{err: errors.New("data channel down")}
		}
		if tc.Valid() {
			t0 = trace.Now()
		}
		n, err := c.writeTrainLocked(c.data, deposits)
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
// a message's header and body on the control stream, none on the ring
// — and then train, on w in one call, and returns the train's bytes
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

// setData installs dc as the connection's data channel and discovers —
// here and nowhere else — whether it can claim deposits in place.
func (c *conn) setData(dc transport.Conn, token uint64) {
	c.data, c.dataToken = dc, token
	c.direct, _ = dc.(transport.DirectReader)
}

// resolveData returns the shm data channel carrying deposits
// referenced by token. Clients own their channel; servers with a data
// listener look the token up in the registry (waiting out the
// cross-socket race). Anywhere else an unknown token fails at once.
func (c *conn) resolveData(token uint64) (transport.Conn, error) {
	if c.dataDown.Load() {
		return nil, &errDepositTransfer{err: errors.New("data channel down")}
	}
	if c.data != nil && token == c.dataToken {
		return c.data, nil
	}
	if !c.isServer || c.orb.dataLis == nil {
		return nil, &errDepositTransfer{
			err: fmt.Errorf("deposit references unknown data channel %#x", token)}
	}
	dc, err := c.orb.waitDataChan(token, c.orb.opts.CallTimeout)
	if err != nil {
		return nil, &errDepositTransfer{err: err}
	}
	c.setData(dc, token)
	return dc, nil
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
	dc, err := c.resolveData(di.Token)
	if err != nil {
		return nil, true, err
	}
	if len(di.Sizes) == 0 {
		// Pure announcement: the client advertised its ring so the
		// server can use it for zero-copy replies.
		return bufs, true, nil
	}
	tr := c.orb.tracer
	var t0, got int64
	if tc.Valid() {
		t0 = trace.Now()
	}
	ttl := c.orb.leaseTTL()
	dr := c.direct
	direct := false
	for _, size := range di.Sizes {
		if dr != nil {
			b, claimed, err := c.claimDirect(dr, int(size), ttl)
			if err != nil {
				releaseAll(bufs)
				c.recordDepositRecv(tc, op, t0, got, true, direct)
				return nil, true, &errDepositTransfer{err: fmt.Errorf("shm claim: %w", err)}
			}
			if claimed {
				direct = true
				got += int64(size)
				bufs = append(bufs, b)
				c.orb.stats.DepositsReceived.Add(1)
				c.orb.stats.DepositBytesRecv.Add(int64(size))
				c.orb.stats.ShmClaims.Add(1)
				continue
			}
			// Record boundaries did not line up: fall through to the
			// copying path, which drains the same ring record.
		}
		b, err := c.orb.pool.Get(int(size))
		if err != nil {
			releaseAll(bufs)
			c.recordDepositRecv(tc, op, t0, got, true, direct)
			return nil, true, &errDepositTransfer{err: err}
		}
		// Lease the buffer for the duration of the blocking read: if
		// the sender aborts mid-transfer, the sweeper expires the lease,
		// closes the data channel (unblocking this ReadFull), and the
		// error path below returns the buffer to the pool.
		lid := c.orb.leases.Grant(b, time.Now().Add(ttl), c.onLeaseExpire)
		n, err := io.ReadFull(dc, b.Bytes())
		got += int64(n)
		c.orb.leases.Settle(lid)
		if err != nil {
			b.Release()
			releaseAll(bufs)
			c.recordDepositRecv(tc, op, t0, got, true, direct)
			return nil, true, &errDepositTransfer{err: fmt.Errorf("deposit read: %w", err)}
		}
		bufs = append(bufs, b)
		c.orb.stats.DepositsReceived.Add(1)
		c.orb.stats.DepositBytesRecv.Add(int64(size))
	}
	if len(di.Sizes) >= 2 {
		c.orb.stats.GatherScatters.Add(1)
	}
	c.recordDepositRecv(tc, op, t0, got, false, direct)
	if tc.Valid() {
		tr.DepositBytes.Record(got)
	}
	return bufs, true, nil
}

// readInline receives a train that rode the control stream behind its
// message. Each segment lands in a page-aligned pool buffer — on a
// speculation hit the very buffer the message's read already filled —
// and the rest is read from the control stream straight into it. The
// train needs no data channel, so its token is not looked up. Any
// failure tears the control stream (an error that is not an
// errDepositTransfer, so the caller closes the connection).
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

// claimDirect attempts the zero-copy claim of one announced payload
// from a shared-memory data channel: a lease covers the blocking wait
// (expiry closes the channel, unblocking the claim), and the claimed
// ring view is wrapped as a Buffer whose final Release returns the
// ring credit. claimed=false with a nil error means the record
// boundaries did not match the announced size; nothing was consumed
// and the caller must read the record through the copying path.
func (c *conn) claimDirect(dr transport.DirectReader, size int,
	ttl time.Duration) (*zcbuf.Buffer, bool, error) {
	lid := c.orb.leases.GrantFunc(size, time.Now().Add(ttl), c.onLeaseExpire)
	view, rel, ok, err := dr.ReadDirect(size)
	c.orb.leases.Settle(lid)
	if err != nil || !ok {
		return nil, false, err
	}
	return zcbuf.WrapShared(view, rel), true, nil
}

// recordDepositRecv emits the deposit_recv (or shm.claim, when any
// payload was claimed directly) span for one announced transfer
// (no-op when tc is zero).
func (c *conn) recordDepositRecv(tc trace.Context, op string, t0, bytes int64,
	failed, direct bool) {
	if !tc.Valid() {
		return
	}
	kind := trace.KindDepositRecv
	if direct {
		kind = trace.KindShmClaim
	}
	c.orb.tracer.Record(trace.Span{
		Trace: tc.Trace, Parent: tc.Span, Kind: kind,
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
				// The ring transfer aborted but the control stream
				// is still framed: retire the data channel, answer
				// TRANSIENT, and keep serving (degraded) instead of
				// killing every in-flight call on the connection.
				c.orb.stats.DepositAborts.Add(1)
				c.markDataDown()
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
				// degrade the channel, keeping the connection and
				// its other in-flight calls alive.
				c.orb.stats.DepositAborts.Add(1)
				c.markDataDown()
				if tc.Valid() {
					c.orb.tracer.Record(trace.Span{
						Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindFallback,
						Err: true, Start: trace.Now(),
					})
				}
				msg.err = &SystemException{Name: "TRANSIENT", Completed: CompletedMaybe}
				c.deliver(msg)
				return true
			}
			c.orb.freeReply(msg)
			c.protocolError("reply deposit: %v", err)
			return false
		}
		msg.deposits = deposits
		c.deliver(msg)
		return true

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
		lrep, err := giop.UnmarshalLocateReplyHeader(dec)
		c.freeInline(dec, body)
		if err != nil {
			c.protocolError("bad locate reply: %v", err)
			return false
		}
		c.mu.Lock()
		ch := c.pendingLocate[lrep.RequestID]
		delete(c.pendingLocate, lrep.RequestID)
		c.mu.Unlock()
		if ch != nil {
			ch <- locateResult{hdr: lrep}
		}
		return true

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
// the peer's LocateReply status.
func (c *conn) locate(id uint32, key []byte, timeout time.Duration) (giop.LocateStatus, error) {
	ch := make(chan locateResult, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	c.pendingLocate[id] = ch
	c.mu.Unlock()

	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.LocateRequestHeader{RequestID: id, ObjectKey: key}).Marshal(e)
	err := c.sendMessage(giop.MsgLocateRequest, e.Bytes())
	cdr.PutEncoder(e)
	if err != nil {
		c.mu.Lock()
		delete(c.pendingLocate, id)
		c.mu.Unlock()
		return 0, err
	}
	t := getTimer(timeout)
	defer putTimer(t)
	select {
	case res := <-ch:
		if res.err != nil {
			return 0, res.err
		}
		return res.hdr.Status, nil
	case <-t.C:
		c.mu.Lock()
		delete(c.pendingLocate, id)
		c.mu.Unlock()
		return 0, &SystemException{Name: "TIMEOUT", Completed: CompletedMaybe}
	}
}

// awaitReply blocks for a reply until the per-call deadline (ctx) or
// the ORB call timeout expires. Abandoned waits always sweep their
// pending-table entry, so timed-out calls cannot grow the striped
// shards unboundedly.
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
		replyChanPool.Put(ch)
		if msg.err != nil {
			err := msg.err
			c.orb.freeReply(msg)
			return nil, err
		}
		return msg, nil
	case <-t.C:
		putTimer(t)
		c.orb.stats.Timeouts.Add(1)
		return c.abandon(id, ch, &SystemException{Name: "TIMEOUT", Completed: CompletedMaybe})
	case <-ctxDone:
		putTimer(t)
		return c.abandon(id, ch, ctx.Err())
	}
}

// abandon gives up on a pending reply: it sweeps the pending-table
// entry, reaps a delivery that raced the abandonment, and sends a
// best-effort GIOP CancelRequest so the server can drop the now
// unwanted reply early. It returns failErr for the caller.
func (c *conn) abandon(id uint32, ch chan *replyMsg, failErr error) (*replyMsg, error) {
	if !c.unregister(id) {
		// Delivery raced the abandonment: the reply is in (or on its
		// way into) the buffered channel. Reap it.
		msg := <-ch
		replyChanPool.Put(ch)
		if msg.err == nil {
			releaseAll(msg.deposits)
		}
		c.orb.freeReply(msg)
		return nil, failErr
	}
	// unregister succeeded, so no deliverer holds the channel (delivery
	// removes the entry under the shard lock before sending): it is
	// provably empty and safe to recycle.
	replyChanPool.Put(ch)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.CancelRequestHeader{RequestID: id}).Marshal(e)
	err := c.sendMessage(giop.MsgCancelRequest, e.Bytes())
	cdr.PutEncoder(e)
	if err == nil {
		c.orb.stats.CancelsSent.Add(1)
	}
	return nil, failErr
}
