package orb

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/ior"
	"zcorba/internal/shmem"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// ObjectRef is a client-side reference to a (possibly remote) CORBA
// object: the IIOPProxy role in the paper's Figure 3/4 data path.
//
// The reference caches its resolved connections (one per stripe when
// the ORB is configured with ConnsPerEndpoint > 1) so steady-state
// invocations skip the ORB's connection table entirely.
type ObjectRef struct {
	orb *ORB
	ior ior.IOR

	// The decoded first IIOP profile, cached on first use: IORs are
	// immutable, so re-decoding it per invocation is pure overhead.
	resolveOnce sync.Once
	prof        profileEntry
	hasProf     bool

	connMu sync.Mutex
	conns  []*conn
	rr     atomic.Uint32
}

// profileEntry is the reference's decoded IIOP profile plus what its
// zero-copy component offers: zcArch is the architecture signature of
// the server's deposit path (empty when it offers none), and ring the
// shm endpoint of a usable ZC-SHM component.
type profileEntry struct {
	profile ior.IIOPProfile
	zcArch  string
	ring    string
}

// current decodes and caches the reference's first IIOP profile with
// its zero-copy component. A multi-profile reference is parsed whole,
// but only this profile is dialed. A deposit component means the
// server takes deposit trains on the control stream; the endpoint it
// names is not dialled. A ZC-SHM component whose host identity and
// architecture match ours yields the shm endpoint, dialled in place of
// the control one; a mismatch counts a ShmMiss and the call takes the
// standard path on the control endpoint.
func (r *ObjectRef) current() (profileEntry, bool) {
	r.resolveOnce.Do(func() {
		o := r.orb
		p, ok := r.ior.IIOP()
		if !ok {
			return
		}
		pe := profileEntry{profile: p}
		if data, ok := p.Component(ior.TagZCDeposit); ok {
			if z, err := ior.DecodeZCDeposit(data); err == nil {
				pe.zcArch = z.Arch
			}
		}
		if pe.zcArch == "" {
			if data, ok := p.Component(ior.TagZCShm); ok {
				if zs, err := ior.DecodeZCShm(data); err == nil {
					if shmem.Supported() && zs.Arch == o.arch && zs.HostID == o.hostID {
						pe.zcArch, pe.ring = zs.Arch, zs.Path
					} else {
						o.stats.ShmMisses.Add(1)
					}
				}
			}
		}
		r.prof, r.hasProf = pe, true
	})
	return r.prof, r.hasProf
}

// IOR returns the underlying interoperable object reference.
func (r *ObjectRef) IOR() ior.IOR { return r.ior }

// String returns the stringified IOR.
func (r *ObjectRef) String() string { return r.ior.String() }

// maxForwards bounds LOCATION_FORWARD chains.
const maxForwards = 4

// Invoke performs a static invocation of op with the given in/inout
// argument values (declaration order). It returns the result value
// (nil for void) and the out/inout values (declaration order).
//
// Zero-copy parameters (IDL type with ZC octet elements) accept
// *zcbuf.Buffer or []byte; the caller retains ownership of argument
// buffers, and owns (must Release) any *zcbuf.Buffer in the results.
func (r *ObjectRef) Invoke(op *Operation, args []any) (any, []any, error) {
	return r.invokeCopy(context.Background(), op, args)
}

// InvokeCtx is Invoke with a per-call deadline/cancellation context:
// the call fails with ctx.Err() as soon as ctx is done, and the retry
// policy (if enabled) stops retrying once ctx expires.
func (r *ObjectRef) InvokeCtx(ctx context.Context, op *Operation, args []any) (any, []any, error) {
	return r.invokeCopy(ctx, op, args)
}

// argvPool holds the argument vectors of synchronous invocations.
var argvPool = sync.Pool{New: func() any { return new([]any) }}

// invokeCopy runs a synchronous invocation on a pooled copy of args.
// The attempts, a LOCATION_FORWARD and the Call keep only the copy, so
// args does not escape and a caller's argument literal (the generated
// stubs' []any{...}) stays on its stack instead of becoming garbage on
// every call. Nothing holds the copy once the invocation returns.
func (r *ObjectRef) invokeCopy(ctx context.Context, op *Operation, args []any) (any, []any, error) {
	p := argvPool.Get().(*[]any)
	argv := append((*p)[:0], args...)
	res, outs, err := r.invokeCtx(ctx, op, argv, 0)
	clear(argv)
	*p = argv[:0]
	argvPool.Put(p)
	return res, outs, err
}

// invokeCtx runs the invocation under the ORB's retry policy: failed
// attempts with a retryable system exception are re-sent after a capped
// exponential backoff, dropping dead cached connections first so the
// retry redials (reconnect-on-COMM_FAILURE).
func (r *ObjectRef) invokeCtx(ctx context.Context, op *Operation, args []any,
	forwards int) (any, []any, error) {
	// One trace covers the whole logical invocation: every attempt's
	// spans (and the server's) correlate under the same trace ID.
	return r.invokeTraced(ctx, op, args, forwards, r.orb.tracer.NewTrace())
}

// invokeTraced is invokeCtx under a caller-supplied trace context (the
// pipelined retry path re-invokes inside the trace of the failed
// submission).
func (r *ObjectRef) invokeTraced(ctx context.Context, op *Operation, args []any,
	forwards int, tc trace.Context) (any, []any, error) {
	o := r.orb
	policy := &o.opts.Retry
	attempt := 1
	for {
		call := r.startCtx(ctx, op, args, tc, uint16(attempt))
		res, outs, err := call.wait(forwards)
		freeCall(call)
		if err == nil || !policy.enabled() || attempt >= policy.MaxAttempts ||
			!policy.retryable(op, err) {
			return res, outs, err
		}
		if ctx != nil && ctx.Err() != nil {
			return res, outs, err
		}
		o.stats.Retries.Add(1)
		r.invalidate()
		backoff := policy.backoff(attempt)
		if tc.Valid() {
			o.tracer.Record(trace.Span{
				Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindRetry,
				Op: op.Name, Attempt: uint16(attempt), Err: true,
				Start: trace.Now(), Dur: int64(backoff),
			})
			o.tracer.RetryBackoffNS.Record(int64(backoff))
		}
		if sleepCtx(ctx, backoff) != nil {
			return res, outs, err
		}
		attempt++
	}
}

// invalidate drops dead connections from the per-ref cache so the next
// attempt goes back through the ORB's connection table and redials.
func (r *ObjectRef) invalidate() {
	r.connMu.Lock()
	for i, c := range r.conns {
		if c != nil && !c.healthy() {
			r.conns[i] = nil
		}
	}
	r.connMu.Unlock()
}

// Call is an in-flight invocation started with InvokeAsync: the
// pipelined mode's unit of work. A Call is owned by one goroutine;
// Wait must be called exactly once.
type Call struct {
	ref     *ObjectRef
	op      *Operation
	args    []any
	ctx     context.Context
	conn    *conn
	id      uint32
	ch      chan *replyMsg
	done    bool
	result  any
	outs    []any
	err     error
	onReply ReplyFunc

	// Trace state: the invocation's context, its wall-clock start, and
	// the 1-based retry attempt this Call represents.
	tc      trace.Context
	start   int64
	attempt uint16

	// send is where startCtx builds the request's service contexts and
	// deposit train.
	send sendScratch
}

// callPool recycles Call envelopes for the synchronous and pipelined
// paths (async callers who drop a Call leave it to the GC).
var callPool = sync.Pool{New: func() any { return new(Call) }}

func freeCall(c *Call) {
	*c = Call{}
	callPool.Put(c)
}

// InvokeAsync begins an invocation of op without waiting for the
// reply. The returned Call must be completed with Wait (exactly once).
// Any immediate failure — marshal error, dead connection — is deferred
// to Wait, so callers can fire a window of requests and collect
// results in order. Every ZC octet stream argument joins one deposit
// train, so a call with N of them is a single vectored write.
//
// The call borrows its argument buffers until its reply is collected
// (Wait, or a Pipeline's ReplyFunc): a LOCATION_FORWARD or a pipelined
// retry re-sends them, so they must not be modified or released before
// then. No plane holds a reference once the send returns, so a
// oneway call, which completes inside InvokeAsync, borrows nothing
// after it returns.
func (r *ObjectRef) InvokeAsync(op *Operation, args []any) *Call {
	return r.startCtx(context.Background(), op, args, r.orb.tracer.NewTrace(), 1)
}

// Wait completes the invocation, blocking for the reply if it has not
// arrived yet.
func (c *Call) Wait() (any, []any, error) { return c.wait(0) }

func (c *Call) wait(forwards int) (any, []any, error) {
	if c.done {
		return c.result, c.outs, c.err
	}
	c.done = true
	tr := c.ref.orb.tracer
	msg, err := c.conn.awaitReply(c.ctx, c.id, c.ch, c.ref.orb.opts.CallTimeout)
	if err != nil {
		c.err = err
		c.finishInvoke(tr)
		return nil, nil, err
	}
	if c.tc.Valid() {
		t0 := trace.Now()
		c.result, c.outs, c.err = c.ref.decodeReply(c.ctx, c.op, msg, c.args, forwards)
		tr.Record(trace.Span{
			Trace: c.tc.Trace, Parent: c.tc.Span, Kind: trace.KindUnmarshal,
			Op: c.op.Name, Attempt: c.attempt, Err: c.err != nil,
			Start: t0, Dur: trace.Now() - t0,
		})
	} else {
		c.result, c.outs, c.err = c.ref.decodeReply(c.ctx, c.op, msg, c.args, forwards)
	}
	c.ref.orb.freeReply(msg)
	c.finishInvoke(tr)
	return c.result, c.outs, c.err
}

// finishInvoke closes the attempt's root span: the whole client-side
// invocation from marshal to decoded reply, retries each getting their
// own root (correlated by the shared trace ID and Attempt).
func (c *Call) finishInvoke(tr *trace.Tracer) {
	if !c.tc.Valid() {
		return
	}
	now := trace.Now()
	dur := now - c.start
	tr.Record(trace.Span{
		Trace: c.tc.Trace, Span: c.tc.Span, Kind: trace.KindInvoke,
		Op: c.op.Name, Attempt: c.attempt, Err: c.err != nil,
		Start: c.start, Dur: dur,
	})
	tr.InvokeLatencyNS.Record(dur)
}

// failedCall returns a completed Call carrying err. args are retained
// so a pipelined caller can re-invoke under the retry policy. The
// attempt's invoke root span closes here, so attempts failing before
// (or during) the send still appear in the trace.
func (r *ObjectRef) failedCall(op *Operation, args []any, err error,
	tc trace.Context, start int64, attempt uint16) *Call {
	call := callPool.Get().(*Call)
	call.ref, call.op, call.args = r, op, args
	call.tc, call.start, call.attempt = tc, start, attempt
	return call.finish(err)
}

// finish completes a Call that has no reply to wait for — it failed
// with err before reaching its reply slot, or it is a oneway send
// (nil) — and closes its invoke root span.
func (c *Call) finish(err error) *Call {
	c.done, c.err = true, err
	c.finishInvoke(c.ref.orb.tracer)
	return c
}

// doneCall returns a completed Call carrying a local result (the
// collocation bypass and oneway sends), closing the invoke root span.
func (r *ObjectRef) doneCall(op *Operation, result any, outs []any, err error,
	tc trace.Context, start int64, attempt uint16) *Call {
	call := callPool.Get().(*Call)
	call.ref, call.op, call.done = r, op, true
	call.result, call.outs, call.err = result, outs, err
	call.tc, call.start, call.attempt = tc, start, attempt
	call.finishInvoke(r.orb.tracer)
	return call
}

// startCtx marshals and sends the request, registering the reply slot
// for response-expected operations. It never blocks on the peer beyond
// the socket write. A send failure confined to the shm ring (the
// deposit) degrades transparently: the ring is retired and the request
// is re-sent with standard marshaling on the same connection (fallback
// ladder, docs/FAULTS.md). A train that rides the stream fails with
// it: COMM_FAILURE.
//
// tc is the invocation's trace context (zero when tracing is off) and
// attempt the 1-based retry attempt it represents; the context rides a
// GIOP service context so the server's spans join the same trace.
func (r *ObjectRef) startCtx(ctx context.Context, op *Operation, args []any,
	tc trace.Context, attempt uint16) *Call {
	o := r.orb
	start := int64(0)
	if tc.Valid() {
		start = trace.Now()
	}

	pe, ok := r.current()
	if !ok {
		return r.failedCall(op, args, &SystemException{Name: "INV_OBJREF", Completed: CompletedNo}, tc, start, attempt)
	}

	// Collocation bypass (§2.1): local calls skip marshaling entirely.
	if o.opts.Collocation && pe.profile.Host == o.ctrlHost && pe.profile.Port == o.ctrlPort {
		if s, found := o.servant(string(pe.profile.ObjectKey)); found {
			result, outs, err := o.invokeLocal(s, op, args)
			return r.doneCall(op, result, outs, err, tc, start, attempt)
		}
	}

	c, err := r.getConn(pe)
	if err != nil {
		// COMM_FAILURE with CompletedNo: the server never saw the
		// request, so the retry policy may re-dial later.
		return r.failedCall(op, args, &SystemException{Name: "COMM_FAILURE", Completed: CompletedNo}, tc, start, attempt)
	}

	inParams := op.InParams()
	inTypes := op.inTypeList()
	if len(args) != len(inParams) {
		return r.failedCall(op, args, &SystemException{Name: "BAD_PARAM", Completed: CompletedNo}, tc, start, attempt)
	}
	useZC := c.zc && !c.ringDown.Load()

	// A two-way request occupies its reply slot from here on, so every
	// failure below frees it.
	kind := slotRequest
	if op.Oneway {
		kind = slotFree
	}
	id, ch, err := c.take(kind)
	if err != nil {
		return r.failedCall(op, args, &SystemException{Name: "COMM_FAILURE", Completed: CompletedNo}, tc, start, attempt)
	}

	// The Call is taken now: the request is built in its send scratch.
	call := callPool.Get().(*Call)
	call.ref, call.op, call.args, call.ctx = r, op, args, ctx
	call.tc, call.start, call.attempt = tc, start, attempt
	call.conn, call.id, call.ch = c, id, ch
	scx := &call.send
	req := giop.RequestHeader{
		ServiceContexts:  scx.contexts[:0],
		RequestID:        id,
		ResponseExpected: !op.Oneway,
		ObjectKey:        pe.profile.ObjectKey,
		Operation:        op.Name,
		Principal:        []byte{},
	}
	var deposits []transport.Segment
	skipZC, inline := false, false
	if useZC {
		var sizes []uint32
		var zcOK bool
		deposits, sizes, zcOK, err = collectDeposits(inTypes, args, scx.segs[:], scx.sizes[:])
		if err != nil {
			return call.fail(&SystemException{Name: "MARSHAL", Completed: CompletedNo})
		}
		// A zero-length ZC value is not deposit-eligible (the wire
		// protocol forbids zero-length deposit blocks): the whole call
		// takes the marshaled path, keeping the empty announcement.
		skipZC = zcOK
		inline = !c.hasRing()
		// Announce deposits on every request (even with no ZC
		// parameters) so the server can deposit zero-copy replies.
		req.ServiceContexts = append(req.ServiceContexts, giop.DepositInfo{
			Arch: o.arch, Sizes: sizes, Inline: inline,
		}.EncodeTo(scx.deposit[:]))
	}
	req.ServiceContexts = scx.appendTrace(req.ServiceContexts, tc)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	req.Marshal(e)
	if err := o.marshalValues(e, inTypes, args, skipZC); err != nil {
		cdr.PutEncoder(e)
		return call.fail(&SystemException{Name: "MARSHAL", Completed: CompletedNo})
	}
	body := e.Bytes()
	if tc.Valid() {
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindMarshal,
			Op: op.Name, Attempt: attempt, Bytes: int64(len(body) - giop.HeaderSize),
			Start: start, Dur: trace.Now() - start,
		})
	}

	o.stats.RequestsSent.Add(1)
	if err := c.send(giop.MsgRequest, body, deposits, inline, tc, op.Name, trace.KindControlSend); err != nil {
		cdr.PutEncoder(e)
		var dw *errDataWrite
		if asErr(err, &dw) && c.healthy() {
			// Only the deposit write failed; the stream already carried
			// the request (the server's claim fails fast once the ring
			// retires, and its TRANSIENT reply to this abandoned id is
			// dropped below). Degrade: retire the ring and re-send
			// standard-marshaled on the same connection.
			c.markRingDown()
			o.stats.DataChanFallbacks.Add(1)
			if tc.Valid() {
				o.tracer.Record(trace.Span{
					Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindFallback,
					Op: op.Name, Attempt: attempt, Err: true, Start: trace.Now(),
				})
			}
			// The superseded request's slot goes, reaping a reply (the
			// server's error answer) that raced in, so the re-send
			// cannot see a stale delivery.
			if ch != nil {
				c.free(id)
			}
			freeCall(call)
			return r.startCtx(ctx, op, args, tc, attempt)
		}
		c.close(err)
		return call.fail(&SystemException{Name: "COMM_FAILURE", Completed: CompletedMaybe})
	}
	cdr.PutEncoder(e)
	if op.Oneway {
		return call.finish(nil)
	}
	return call
}

// fail completes a Call that failed after taking its reply slot: the
// slot is freed, then the Call finishes with err.
func (c *Call) fail(err error) *Call {
	if c.ch != nil {
		c.conn.free(c.id)
	}
	return c.finish(err)
}

// getConn returns a healthy connection for this reference, consulting
// the per-ref cache first and rotating across the ORB's connection
// stripes when ConnsPerEndpoint > 1. The connection is zero-copy when
// both ORBs opted in and the architectures match (the homogeneity
// negotiation of §2.1; on mismatch calls transparently fall back to
// standard IIOP marshaling).
func (r *ObjectRef) getConn(pe profileEntry) (*conn, error) {
	o := r.orb
	zc := o.opts.ZeroCopy && pe.zcArch == o.arch
	stripes := o.connStripes()
	stripe := 0
	if stripes > 1 {
		stripe = int(r.rr.Add(1)) % stripes
	}
	r.connMu.Lock()
	if stripe < len(r.conns) {
		if c := r.conns[stripe]; c != nil && c.healthy() {
			r.connMu.Unlock()
			return c, nil
		}
	}
	r.connMu.Unlock()
	c, err := o.dialConn(dialAddr(pe.profile.Host, pe.profile.Port), zc, pe.ring, stripe)
	if err != nil {
		return nil, err
	}
	r.connMu.Lock()
	for len(r.conns) < stripes {
		r.conns = append(r.conns, nil)
	}
	r.conns[stripe] = c
	r.connMu.Unlock()
	return c, nil
}

// decodeReply interprets a reply message for op. It consumes the
// message's deposits (handing them to the caller on the success path)
// but not the message itself; the caller frees it.
func (r *ObjectRef) decodeReply(ctx context.Context, op *Operation, msg *replyMsg, args []any,
	forwards int) (any, []any, error) {
	o := r.orb
	switch msg.hdr.Status {
	case giop.ReplyNoException:
		types := op.replyTypeList()
		vals, leftover, err := o.unmarshalValues(msg.vals, msg.dec, types, msg.deposits,
			len(msg.deposits) > 0, nil)
		msg.vals = vals
		if err != nil {
			releaseAll(leftover)
			return nil, nil, &SystemException{Name: "MARSHAL", Completed: CompletedYes}
		}
		// vals is the pooled message's storage: the result is copied
		// out of it, and only out values, which the caller keeps, get
		// a slice of their own.
		var result any
		if op.Result != nil && op.Result.Kind() != typecode.Void {
			result = vals[0]
			vals = vals[1:]
		}
		var outs []any
		if len(vals) > 0 {
			outs = append(outs, vals...)
		}
		return result, outs, nil

	case giop.ReplyUserException:
		releaseAll(msg.deposits)
		repoID, err := msg.dec.ReadString()
		if err != nil {
			return nil, nil, &SystemException{Name: "MARSHAL", Completed: CompletedYes}
		}
		for _, ex := range op.Exceptions {
			if ex.RepoID() != repoID {
				continue
			}
			fields, err := typecode.UnmarshalValue(msg.dec, ex)
			if err != nil {
				return nil, nil, &SystemException{Name: "MARSHAL", Completed: CompletedYes}
			}
			fs, _ := fields.([]any)
			return nil, nil, &UserException{Type: ex, Fields: fs}
		}
		return nil, nil, &SystemException{Name: "UNKNOWN", Completed: CompletedYes}

	case giop.ReplySystemException:
		releaseAll(msg.deposits)
		repoID, err := msg.dec.ReadString()
		if err != nil {
			return nil, nil, &SystemException{Name: "MARSHAL", Completed: CompletedYes}
		}
		minor, _ := msg.dec.ReadULong()
		completed, _ := msg.dec.ReadULong()
		return nil, nil, &SystemException{
			Name:      sysexName(repoID),
			Minor:     minor,
			Completed: CompletionStatus(completed),
		}

	case giop.ReplyLocationForward:
		releaseAll(msg.deposits)
		if forwards >= maxForwards {
			return nil, nil, &SystemException{Name: "TRANSIENT", Completed: CompletedNo}
		}
		fwd, err := ior.Unmarshal(msg.dec)
		if err != nil {
			return nil, nil, &SystemException{Name: "MARSHAL", Completed: CompletedNo}
		}
		fr := &ObjectRef{orb: o, ior: fwd}
		return fr.invokeCtx(ctx, op, args, forwards+1)

	default:
		releaseAll(msg.deposits)
		return nil, nil, &SystemException{Name: "INTERNAL", Completed: CompletedMaybe}
	}
}

// sysexName extracts the unscoped name from a system exception repo ID
// such as "IDL:omg.org/CORBA/COMM_FAILURE:1.0".
func sysexName(repoID string) string {
	s := strings.TrimPrefix(repoID, "IDL:omg.org/CORBA/")
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		return "UNKNOWN"
	}
	return s
}

// invokeLocal dispatches a collocated call without marshaling: the
// argument references are handed to the servant as-is (zero copies,
// zero wire traffic).
func (o *ORB) invokeLocal(s Servant, op *Operation, args []any) (any, []any, error) {
	o.stats.Collocated.Add(1)
	inParams := op.InParams()
	if len(args) != len(inParams) {
		return nil, nil, &SystemException{Name: "BAD_PARAM", Completed: CompletedNo}
	}
	vals := make([]any, len(args))
	for i, p := range inParams {
		v := args[i]
		if p.Type.IsZCOctetSeq() {
			if b, ok := v.([]byte); ok {
				v = zcbuf.Wrap(b)
			}
		}
		vals[i] = v
	}
	result, outs, err := s.Invoke(op.Name, vals)
	if err != nil {
		var sysErr *SystemException
		var usrErr *UserException
		var fwdErr *LocationForward
		switch {
		case asErr(err, &sysErr), asErr(err, &usrErr):
			return nil, nil, err
		case asErr(err, &fwdErr):
			fr := &ObjectRef{orb: o, ior: fwdErr.To}
			return fr.invokeCtx(context.Background(), op, args, 1)
		default:
			return nil, nil, &SystemException{Name: "UNKNOWN", Completed: CompletedMaybe}
		}
	}
	return result, outs, nil
}

// asErr is a tiny errors.As helper avoiding the import in hot code.
func asErr[T error](err error, target *T) bool {
	if e, ok := err.(T); ok {
		*target = e
		return true
	}
	return false
}

// IsA performs the implicit CORBA _is_a operation against the remote
// object.
func (r *ObjectRef) IsA(repoID string) (bool, error) {
	op := &Operation{
		Name:   "_is_a",
		Params: []Param{{Name: "id", Type: typecode.TCString, Dir: In}},
		Result: typecode.TCBoolean,
	}
	res, _, err := r.Invoke(op, []any{repoID})
	if err != nil {
		return false, err
	}
	b, _ := res.(bool)
	return b, nil
}

// NonExistent performs the implicit _non_existent operation; it
// reports true if the target object is not active at the server.
func (r *ObjectRef) NonExistent() (bool, error) {
	op := &Operation{Name: "_non_existent", Result: typecode.TCBoolean}
	res, _, err := r.Invoke(op, nil)
	if err != nil {
		var sys *SystemException
		if asErr(err, &sys) && sys.Name == "OBJECT_NOT_EXIST" {
			return true, nil
		}
		return false, err
	}
	b, _ := res.(bool)
	return b, nil
}
