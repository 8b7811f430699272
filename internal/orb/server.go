package orb

import (
	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// handleRequest is the MethodDispatcher of Figures 3/4: it maps an
// inbound GIOP request to a servant operation, demarshals (or adopts
// deposited) parameters, invokes the implementation, and sends the
// reply — depositing zero-copy results when the request announced
// deposits.
//
// Buffer ownership: request deposit buffers are released by the ORB
// after the invocation completes (a servant Retains to keep one);
// servant-returned reply buffers are owned by the ORB and released
// after the reply is written — a servant echoing a request buffer back
// must therefore Retain it.
//
// r.tc is the trace context the client sent (zero when untraced);
// every server-side span — unmarshal, dispatch, reply send — joins it,
// and replies echo it so the client can attribute reply deposits.
func (o *ORB) handleRequest(c *conn, r *request) {
	o.stats.RequestsServed.Add(1)
	req, dec, deposits, tc := &r.hdr, r.dec, r.deposits, r.tc

	s, found := o.servant(string(req.ObjectKey))

	// Implicit CORBA object operations are answered by the ORB itself.
	switch req.Operation {
	case "_is_a":
		releaseAll(deposits)
		repoID, err := dec.ReadString()
		if err != nil {
			o.replySystemException(c, r, &SystemException{Name: "MARSHAL", Completed: CompletedNo})
			return
		}
		ok := found && (repoID == s.Interface().RepoID ||
			repoID == "IDL:omg.org/CORBA/Object:1.0")
		o.replyValues(c, r, nil, []*typecode.TypeCode{typecode.TCBoolean}, []any{ok})
		return
	case "_non_existent":
		releaseAll(deposits)
		if !found {
			o.replySystemException(c, r, &SystemException{Name: "OBJECT_NOT_EXIST", Completed: CompletedNo})
			return
		}
		o.replyValues(c, r, nil, []*typecode.TypeCode{typecode.TCBoolean}, []any{false})
		return
	}

	if !found {
		releaseAll(deposits)
		o.replySystemException(c, r, &SystemException{Name: "OBJECT_NOT_EXIST", Completed: CompletedNo})
		return
	}
	op, ok := s.Interface().Ops[req.Operation]
	if !ok {
		releaseAll(deposits)
		o.replySystemException(c, r, &SystemException{Name: "BAD_OPERATION", Completed: CompletedNo})
		return
	}

	inTypes := op.inTypeList()
	var t0 int64
	if tc.Valid() {
		t0 = trace.Now()
	}
	args, leftover, err := o.unmarshalValues(r.args, dec, inTypes, deposits, len(deposits) > 0, &r.in)
	r.args = args
	if tc.Valid() {
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindUnmarshal,
			Op: req.Operation, Err: err != nil, Start: t0, Dur: trace.Now() - t0,
		})
	}
	if err != nil {
		releaseAll(leftover)
		o.replySystemException(c, r, &SystemException{Name: "MARSHAL", Completed: CompletedNo})
		return
	}

	if tc.Valid() {
		t0 = trace.Now()
	}
	result, outs, err := s.Invoke(op.Name, args)
	if tc.Valid() {
		d := trace.Now() - t0
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindDispatch,
			Op: req.Operation, Err: err != nil, Start: t0, Dur: d,
		})
		o.tracer.DispatchLatencyNS.Record(d)
	}
	// The invocation is complete: drop the ORB's reference on the
	// request deposits (the skeleton's pass-per-reference of §4.5).
	releaseAll(deposits)

	if op.Oneway {
		return
	}
	if err != nil {
		var usr *UserException
		var sys *SystemException
		var fwd *LocationForward
		switch {
		case asErr(err, &usr):
			o.replyUserException(c, r, usr)
		case asErr(err, &sys):
			o.replySystemException(c, r, sys)
		case asErr(err, &fwd):
			o.replyLocationForward(c, r, fwd)
		default:
			o.replySystemException(c, r, &SystemException{Name: "UNKNOWN", Completed: CompletedMaybe})
		}
		return
	}

	types := op.replyTypeList()
	vals := r.reply[:0]
	if op.Result != nil && op.Result.Kind() != typecode.Void {
		vals = append(vals, result)
	}
	vals = append(vals, outs...)
	r.reply = vals
	if len(vals) != len(types) {
		o.replySystemException(c, r, &SystemException{Name: "INTERNAL", Completed: CompletedYes})
		return
	}
	o.replyValues(c, r, op, types, vals)
}

// internOp is the request header's operation interner: it returns the
// operation's name as the target servant's op table (or the ORB's
// implicit operations) spells it, so a known operation decodes without
// allocating and its name, which spans and the skeleton keep, never
// aliases the message body.
func (o *ORB) internOp(key, op []byte) (string, bool) {
	if s, ok := o.servant(string(key)); ok {
		if d, ok := s.Interface().Ops[string(op)]; ok && d.Name == string(op) {
			return d.Name, true
		}
	}
	for _, name := range implicitOps {
		if name == string(op) {
			return name, true
		}
	}
	return "", false
}

// implicitOps are the CORBA object operations the ORB answers itself.
var implicitOps = [...]string{"_is_a", "_non_existent"}

// shedRequest rejects a request that exceeded the admission cap
// (Options.MaxInFlight): the client gets an immediate TRANSIENT system
// exception (minor shedMinor) instead of queueing behind an overloaded
// dispatcher — retry-policy clients back off and re-invoke, which is
// the backpressure loop docs/FAULTS.md describes. Oneway requests are
// shed silently (replySystemException already suppresses replies the
// client never waits for). Deposits announced with the request were
// consumed by the caller, so the stream's framing stays intact.
func (o *ORB) shedRequest(c *conn, r *request) {
	o.stats.ShedRequests.Add(1)
	if tc := r.tc; tc.Valid() {
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindShed,
			Op: r.hdr.Operation, Err: true, Start: trace.Now(),
		})
	}
	o.replySystemException(c, r, &SystemException{
		Name: "TRANSIENT", Minor: shedMinor, Completed: CompletedNo,
	})
}

// replyHeader starts the reply to r with the given status, echoing the
// request's trace context (built in r's send scratch) so the client
// side of the trace can attribute the reply's deposits. A zero context
// adds nothing, keeping untraced replies byte-identical.
func replyHeader(r *request, status giop.ReplyStatus) giop.ReplyHeader {
	return giop.ReplyHeader{
		ServiceContexts: r.send.appendTrace(r.send.contexts[:0], r.tc),
		RequestID:       r.hdr.RequestID,
		Status:          status,
	}
}

// replyValues sends a NO_EXCEPTION reply to r carrying the given
// values, depositing ZC octet streams when the request announced
// deposits: behind the reply on a stream plane, into the ring on shm.
// Reply buffers handed in as *zcbuf.Buffer are released after the
// write, or after the MARSHAL answer when a value cannot be sent.
func (o *ORB) replyValues(c *conn, r *request, op *Operation,
	types []*typecode.TypeCode, vals []any) {
	defer releaseValues(vals)
	tc, scx := r.tc, &r.send
	rep := giop.ReplyHeader{
		ServiceContexts: scx.contexts[:0],
		RequestID:       r.hdr.RequestID, Status: giop.ReplyNoException,
	}
	useZC := r.zc && !c.ringDown.Load()

	var deposits []transport.Segment
	skipZC, inline := false, false
	if useZC {
		var sizes []uint32
		var zcOK bool
		var err error
		deposits, sizes, zcOK, err = collectDeposits(types, vals, scx.segs[:], scx.sizes[:])
		if err != nil {
			o.replySystemException(c, r, &SystemException{Name: "MARSHAL", Completed: CompletedYes})
			return
		}
		// zcOK=false (a zero-length ZC value, which the wire protocol
		// cannot deposit): marshal the reply values into the body.
		skipZC = zcOK
		if len(sizes) > 0 {
			inline = !c.hasRing()
			rep.ServiceContexts = append(rep.ServiceContexts, giop.DepositInfo{
				Arch: o.arch, Sizes: sizes, Inline: inline,
			}.EncodeTo(scx.deposit[:]))
		} else {
			deposits = nil
		}
	}
	rep.ServiceContexts = scx.appendTrace(rep.ServiceContexts, tc)

	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	if err := o.marshalValues(e, types, vals, skipZC); err != nil {
		cdr.PutEncoder(e)
		o.replySystemException(c, r, &SystemException{Name: "MARSHAL", Completed: CompletedYes})
		return
	}
	err := c.send(giop.MsgReply, e.Bytes(), deposits, inline, tc, r.hdr.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		var dw *errDataWrite
		if asErr(err, &dw) && c.healthy() {
			// Only the reply's ring deposit failed; the stream already
			// carried the reply header. Retire the ring but keep the
			// connection: the client's claim fails fast (its TRANSIENT
			// error drives the retry), and future replies marshal
			// standard.
			c.markRingDown()
		} else {
			c.close(err)
		}
	}
}

// releaseValues releases the servant's reply buffers and file
// payloads, which the ORB consumes. A typed nil is skipped: it was
// answered with MARSHAL.
func releaseValues(vals []any) {
	for _, v := range vals {
		switch b := v.(type) {
		case *zcbuf.Buffer:
			if b != nil {
				b.Release()
			}
		case *zcbuf.File:
			if b != nil {
				b.Release()
			}
		}
	}
}

// replyUserException sends a USER_EXCEPTION reply: the exception's
// repository ID followed by its members.
func (o *ORB) replyUserException(c *conn, r *request, ex *UserException) {
	rep := replyHeader(r, giop.ReplyUserException)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	e.WriteString(ex.Type.RepoID())
	if err := typecode.MarshalValue(e, ex.Type, ex.Fields); err != nil {
		cdr.PutEncoder(e)
		o.replySystemException(c, r, &SystemException{Name: "MARSHAL", Completed: CompletedYes})
		return
	}
	err := c.send(giop.MsgReply, e.Bytes(), nil, false, r.tc, r.hdr.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		c.close(err)
	}
}

// replyLocationForward sends a LOCATION_FORWARD reply carrying the new
// object reference; the client ORB retries against it transparently.
func (o *ORB) replyLocationForward(c *conn, r *request, fwd *LocationForward) {
	if !r.hdr.ResponseExpected {
		return
	}
	rep := replyHeader(r, giop.ReplyLocationForward)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	fwd.To.Marshal(e)
	err := c.send(giop.MsgReply, e.Bytes(), nil, false, r.tc, r.hdr.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		c.close(err)
	}
}

// replySystemException sends a SYSTEM_EXCEPTION reply.
func (o *ORB) replySystemException(c *conn, r *request, ex *SystemException) {
	if !r.hdr.ResponseExpected {
		return
	}
	rep := replyHeader(r, giop.ReplySystemException)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	e.WriteString(ex.RepoID())
	e.WriteULong(ex.Minor)
	e.WriteULong(uint32(ex.Completed))
	err := c.send(giop.MsgReply, e.Bytes(), nil, false, r.tc, r.hdr.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		c.close(err)
	}
}
