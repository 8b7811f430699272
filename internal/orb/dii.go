package orb

import (
	"zcorba/internal/giop"
	"zcorba/internal/typecode"
)

// This file provides the dynamic halves of the CORBA programming
// model: the Dynamic Invocation Interface (build a request without
// compiled stubs), the Dynamic Skeleton Interface (serve an interface
// without compiled skeletons), and object location (LocateRequest).

// Request is a dynamically assembled invocation (the DII). Build it
// with ObjectRef.Request, add typed arguments, then Call.
//
//	res, err := ref.Request("resize").
//	    In(typecode.TCULong, uint32(1920)).
//	    Returns(typecode.TCBoolean).
//	    Call()
type Request struct {
	ref  *ObjectRef
	op   Operation
	args []any
}

// Request starts building a dynamic invocation of the named operation.
func (r *ObjectRef) Request(name string) *Request {
	return &Request{ref: r, op: Operation{Name: name, Result: typecode.TCVoid}}
}

// In adds an in parameter.
func (rq *Request) In(tc *typecode.TypeCode, v any) *Request {
	rq.op.Params = append(rq.op.Params, Param{Type: tc, Dir: In})
	rq.args = append(rq.args, v)
	return rq
}

// Out declares an out parameter (its value is returned by Call).
func (rq *Request) Out(tc *typecode.TypeCode) *Request {
	rq.op.Params = append(rq.op.Params, Param{Type: tc, Dir: Out})
	return rq
}

// InOut adds an inout parameter.
func (rq *Request) InOut(tc *typecode.TypeCode, v any) *Request {
	rq.op.Params = append(rq.op.Params, Param{Type: tc, Dir: InOut})
	rq.args = append(rq.args, v)
	return rq
}

// Returns declares the result type (void if never called).
func (rq *Request) Returns(tc *typecode.TypeCode) *Request {
	rq.op.Result = tc
	return rq
}

// Raises declares a user exception the operation may raise, so Call
// can decode it into a *UserException.
func (rq *Request) Raises(tc *typecode.TypeCode) *Request {
	rq.op.Exceptions = append(rq.op.Exceptions, tc)
	return rq
}

// Oneway marks the request as oneway (no reply).
func (rq *Request) Oneway() *Request {
	rq.op.Oneway = true
	return rq
}

// Call performs the invocation and returns the result value and the
// out/inout values in declaration order.
func (rq *Request) Call() (any, []any, error) {
	return rq.ref.Invoke(&rq.op, rq.args)
}

// DynamicServant adapts a plain function to the Servant interface —
// the DSI. The contract must still be declared so the ORB can
// demarshal parameters.
type DynamicServant struct {
	Contract *Interface
	Handler  func(op string, args []any) (result any, outs []any, err error)
}

// Interface implements Servant.
func (d DynamicServant) Interface() *Interface { return d.Contract }

// Invoke implements Servant.
func (d DynamicServant) Invoke(op string, args []any) (any, []any, error) {
	return d.Handler(op, args)
}

// LocateStatus re-exports the GIOP locate outcome.
type LocateStatus = giop.LocateStatus

// Locate outcomes.
const (
	LocateUnknownObject = giop.LocateUnknownObject
	LocateObjectHere    = giop.LocateObjectHere
	LocateObjectForward = giop.LocateObjectForward
)

// Locate asks the object's server whether the target is active there,
// using a GIOP LocateRequest (cheaper than _non_existent: no dispatch,
// no exception machinery).
func (r *ObjectRef) Locate() (LocateStatus, error) {
	o := r.orb
	profile, ok := r.ior.IIOP()
	if !ok {
		return 0, &SystemException{Name: "INV_OBJREF", Completed: CompletedNo}
	}
	c, err := o.dialConn(dialAddr(profile.Host, profile.Port), false, "", 0)
	if err != nil {
		return 0, err
	}
	return c.locate(o.reqID.Add(1), profile.ObjectKey, o.opts.CallTimeout)
}
