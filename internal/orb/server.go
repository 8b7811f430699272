package orb

import (
	"time"

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
// reply — depositing zero-copy results on the data channel when the
// client announced one.
//
// Buffer ownership: request deposit buffers are released by the ORB
// after the invocation completes (a servant Retains to keep one);
// servant-returned reply buffers are owned by the ORB and released
// after the reply is written — a servant echoing a request buffer back
// must therefore Retain it.
//
// tc is the trace context the client sent (zero when untraced); every
// server-side span — unmarshal, dispatch, reply send — joins it, and
// replies echo it so the client can attribute reply deposits.
func (o *ORB) handleRequest(c *conn, req giop.RequestHeader, dec *cdr.Decoder,
	deposits []*zcbuf.Buffer, tc trace.Context) {
	o.stats.RequestsServed.Add(1)

	s, found := o.servant(string(req.ObjectKey))

	// Implicit CORBA object operations are answered by the ORB itself.
	switch req.Operation {
	case "_is_a":
		releaseAll(deposits)
		repoID, err := dec.ReadString()
		if err != nil {
			o.replySystemException(c, req, &SystemException{Name: "MARSHAL", Completed: CompletedNo}, tc)
			return
		}
		ok := found && (repoID == s.Interface().RepoID ||
			repoID == "IDL:omg.org/CORBA/Object:1.0")
		o.replyValues(c, req, nil, []*typecode.TypeCode{typecode.TCBoolean}, []any{ok}, tc)
		return
	case "_non_existent":
		releaseAll(deposits)
		if !found {
			o.replySystemException(c, req, &SystemException{Name: "OBJECT_NOT_EXIST", Completed: CompletedNo}, tc)
			return
		}
		o.replyValues(c, req, nil, []*typecode.TypeCode{typecode.TCBoolean}, []any{false}, tc)
		return
	}

	if !found {
		releaseAll(deposits)
		o.replySystemException(c, req, &SystemException{Name: "OBJECT_NOT_EXIST", Completed: CompletedNo}, tc)
		return
	}
	op, ok := s.Interface().Ops[req.Operation]
	if !ok {
		releaseAll(deposits)
		o.replySystemException(c, req, &SystemException{Name: "BAD_OPERATION", Completed: CompletedNo}, tc)
		return
	}

	inTypes := op.inTypeList()
	var t0 int64
	if tc.Valid() {
		t0 = trace.Now()
	}
	args, leftover, err := o.unmarshalValues(dec, inTypes, deposits, len(deposits) > 0)
	if tc.Valid() {
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindUnmarshal,
			Op: req.Operation, Err: err != nil, Start: t0, Dur: trace.Now() - t0,
		})
	}
	if err != nil {
		releaseAll(leftover)
		o.logf("orb: demarshal %s: %v", req.Operation, err)
		o.replySystemException(c, req, &SystemException{Name: "MARSHAL", Completed: CompletedNo}, tc)
		return
	}

	started := time.Now()
	result, outs, err := s.Invoke(op.Name, args)
	if tc.Valid() {
		d := time.Since(started)
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindDispatch,
			Op: req.Operation, Err: err != nil,
			Start: started.UnixNano(), Dur: int64(d),
		})
		o.tracer.DispatchLatencyNS.Record(int64(d))
	}
	// The invocation is complete: drop the ORB's reference on the
	// request deposits (the skeleton's pass-per-reference of §4.5).
	releaseAll(deposits)

	if op.Oneway {
		if err != nil {
			o.logf("orb: oneway %s failed: %v", req.Operation, err)
		}
		return
	}
	if err != nil {
		var usr *UserException
		var sys *SystemException
		var fwd *LocationForward
		switch {
		case asErr(err, &usr):
			o.replyUserException(c, req, usr, tc)
		case asErr(err, &sys):
			o.replySystemException(c, req, sys, tc)
		case asErr(err, &fwd):
			o.replyLocationForward(c, req, fwd, tc)
		default:
			o.logf("orb: %s raised: %v", req.Operation, err)
			o.replySystemException(c, req, &SystemException{Name: "UNKNOWN", Completed: CompletedMaybe}, tc)
		}
		return
	}

	types := op.replyTypeList()
	vals := make([]any, 0, len(types))
	if op.Result != nil && op.Result.Kind() != typecode.Void {
		vals = append(vals, result)
	}
	vals = append(vals, outs...)
	if len(vals) != len(types) {
		o.logf("orb: %s returned %d values, want %d", req.Operation, len(vals), len(types))
		o.replySystemException(c, req, &SystemException{Name: "INTERNAL", Completed: CompletedYes}, tc)
		return
	}
	o.replyValues(c, req, op, types, vals, tc)
}

// shedRequest rejects a request that exceeded the admission cap
// (Options.MaxInFlight): the client gets an immediate TRANSIENT system
// exception (minor shedMinor) instead of queueing behind an overloaded
// dispatcher — retry-policy clients back off and re-invoke, which is
// the backpressure loop docs/FAULTS.md describes. Oneway requests are
// shed silently (replySystemException already suppresses replies the
// client never waits for). Deposits announced with the request were
// consumed by the caller, so the data channel's framing stays intact.
func (o *ORB) shedRequest(c *conn, req giop.RequestHeader, tc trace.Context) {
	o.stats.ShedRequests.Add(1)
	if tc.Valid() {
		o.tracer.Record(trace.Span{
			Trace: tc.Trace, Parent: tc.Span, Kind: trace.KindShed,
			Op: req.Operation, Err: true, Start: trace.Now(),
		})
	}
	o.replySystemException(c, req, &SystemException{
		Name: "TRANSIENT", Minor: shedMinor, Completed: CompletedNo,
	}, tc)
}

// echoTrace appends the request's trace context to a reply header so
// the client side of the trace can attribute the reply's deposits. A
// zero context appends nothing, keeping untraced replies byte-identical.
func echoTrace(rep *giop.ReplyHeader, tc trace.Context) {
	if tc.Valid() {
		rep.ServiceContexts = append(rep.ServiceContexts, giop.TraceContext{
			TraceID: uint64(tc.Trace), SpanID: uint64(tc.Span),
		}.Encode())
	}
}

// replyValues sends a NO_EXCEPTION reply carrying the given values,
// depositing ZC octet streams on the data channel when available.
// Reply buffers handed in as *zcbuf.Buffer are released after the
// write.
func (o *ORB) replyValues(c *conn, req giop.RequestHeader, op *Operation,
	types []*typecode.TypeCode, vals []any, tc trace.Context) {
	rep := giop.ReplyHeader{RequestID: req.RequestID, Status: giop.ReplyNoException}
	useZC := c.usableData()

	var deposits []transport.Segment
	skipZC := false
	if useZC {
		var sizes []uint32
		var zcOK bool
		var err error
		deposits, sizes, zcOK, err = collectDeposits(types, vals)
		if err != nil {
			o.replySystemException(c, req, &SystemException{Name: "MARSHAL", Completed: CompletedYes}, tc)
			return
		}
		// zcOK=false (a zero-length ZC value, which the wire protocol
		// cannot deposit): marshal the reply values into the body.
		skipZC = zcOK
		if len(sizes) > 0 {
			rep.ServiceContexts = append(rep.ServiceContexts, giop.DepositInfo{
				Arch: o.arch, Token: c.dataToken, Sizes: sizes,
			}.Encode())
		} else {
			deposits = nil
		}
	}
	echoTrace(&rep, tc)

	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	if err := o.marshalValues(e, types, vals, skipZC); err != nil {
		cdr.PutEncoder(e)
		o.logf("orb: reply marshal: %v", err)
		o.replySystemException(c, req, &SystemException{Name: "MARSHAL", Completed: CompletedYes}, tc)
		return
	}
	err := c.send(giop.MsgReply, e.Bytes(), deposits, tc, req.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		var dw *errDataWrite
		if asErr(err, &dw) && c.healthy() {
			// Only the reply's deposit write failed; the control stream
			// already carried the reply header. Retire the data channel
			// but keep the connection: the client's deposit read fails
			// fast (its TRANSIENT error drives the retry), and future
			// replies marshal standard.
			c.markDataDown()
			o.logf("orb: reply deposit write failed, degrading: %v", err)
		} else {
			c.close(err)
		}
	}
	// The ORB consumed the servant's reply buffers (and file payloads).
	for _, v := range vals {
		switch b := v.(type) {
		case *zcbuf.Buffer:
			b.Release()
		case *zcbuf.File:
			b.Release()
		}
	}
}

// replyUserException sends a USER_EXCEPTION reply: the exception's
// repository ID followed by its members.
func (o *ORB) replyUserException(c *conn, req giop.RequestHeader, ex *UserException, tc trace.Context) {
	rep := giop.ReplyHeader{RequestID: req.RequestID, Status: giop.ReplyUserException}
	echoTrace(&rep, tc)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	e.WriteString(ex.Type.RepoID())
	if err := typecode.MarshalValue(e, ex.Type, ex.Fields); err != nil {
		cdr.PutEncoder(e)
		o.logf("orb: user exception marshal: %v", err)
		o.replySystemException(c, req, &SystemException{Name: "MARSHAL", Completed: CompletedYes}, tc)
		return
	}
	err := c.send(giop.MsgReply, e.Bytes(), nil, tc, req.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		c.close(err)
	}
}

// replyLocationForward sends a LOCATION_FORWARD reply carrying the new
// object reference; the client ORB retries against it transparently.
func (o *ORB) replyLocationForward(c *conn, req giop.RequestHeader, fwd *LocationForward, tc trace.Context) {
	if !req.ResponseExpected {
		return
	}
	rep := giop.ReplyHeader{RequestID: req.RequestID, Status: giop.ReplyLocationForward}
	echoTrace(&rep, tc)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	fwd.To.Marshal(e)
	err := c.send(giop.MsgReply, e.Bytes(), nil, tc, req.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		c.close(err)
	}
}

// replySystemException sends a SYSTEM_EXCEPTION reply.
func (o *ORB) replySystemException(c *conn, req giop.RequestHeader, ex *SystemException, tc trace.Context) {
	if !req.ResponseExpected {
		return
	}
	rep := giop.ReplyHeader{RequestID: req.RequestID, Status: giop.ReplySystemException}
	echoTrace(&rep, tc)
	e := cdr.GetEncoder(cdr.NativeOrder, giop.HeaderSize)
	rep.Marshal(e)
	e.WriteString(ex.RepoID())
	e.WriteULong(ex.Minor)
	e.WriteULong(uint32(ex.Completed))
	err := c.send(giop.MsgReply, e.Bytes(), nil, tc, req.Operation, trace.KindReplySend)
	cdr.PutEncoder(e)
	if err != nil {
		c.close(err)
	}
}
