package orb

import "zcorba/internal/giop"

// This file provides the dynamic skeleton (serve an interface without
// compiled skeletons) and object location (LocateRequest).

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
// no exception machinery). It rides the connection the reference's
// calls use.
func (r *ObjectRef) Locate() (LocateStatus, error) {
	pe, ok := r.current()
	if !ok {
		return 0, &SystemException{Name: "INV_OBJREF", Completed: CompletedNo}
	}
	c, err := r.getConn(pe)
	if err != nil {
		return 0, err
	}
	return c.locate(pe.profile.ObjectKey, r.orb.opts.CallTimeout)
}
