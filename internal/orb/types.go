// Package orb implements the Object Request Broker: the paper's
// primary contribution lives here. It provides object activation and
// dispatch (the object adapter), client-side object references with
// static invocation, GIOP connection management, and — on top of the
// standard copying path — the zero-copy direct-deposit fast path of
// §4: marshaling bypass for ZC octet streams, separation of control
// and data transfers onto distinct connections, and page-aligned
// deposit buffers at the receiver.
package orb

import (
	"fmt"
	"sync"

	"zcorba/internal/ior"
	"zcorba/internal/typecode"
)

// Direction classifies a parameter's flow.
type Direction int

// Parameter directions, as in IDL.
const (
	In Direction = iota
	Out
	InOut
)

func (d Direction) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Param describes one operation parameter.
type Param struct {
	Name string
	Type *typecode.TypeCode
	Dir  Direction
}

// Operation describes one IDL operation: its signature is what the
// stub marshals and the skeleton demarshals.
type Operation struct {
	Name   string
	Params []Param
	// Result is the return type; typecode.TCVoid for none.
	Result *typecode.TypeCode
	// Oneway operations expect no reply.
	Oneway bool
	// Idempotent marks operations safe to re-invoke when a failure
	// leaves completion uncertain (CompletedMaybe): the retry policy
	// only re-sends such calls automatically for idempotent operations.
	Idempotent bool
	// Exceptions lists the struct TypeCodes of declared user
	// exceptions (matched by repository ID on the wire).
	Exceptions []*typecode.TypeCode

	// Signature projections, derived once on first use. Operations are
	// immutable after construction, so rebuilding these slices per
	// invocation would only feed the garbage collector.
	sigOnce   sync.Once
	inParams  []Param
	outParams []Param
	inTypes   []*typecode.TypeCode
	replyTys  []*typecode.TypeCode
}

// sig computes the cached signature projections.
func (op *Operation) sig() {
	op.sigOnce.Do(func() {
		for _, p := range op.Params {
			if p.Dir == In || p.Dir == InOut {
				op.inParams = append(op.inParams, p)
			}
			if p.Dir == Out || p.Dir == InOut {
				op.outParams = append(op.outParams, p)
			}
		}
		op.inTypes = paramTypes(op.inParams)
		if op.Result != nil && op.Result.Kind() != typecode.Void {
			op.replyTys = append(op.replyTys, op.Result)
		}
		op.replyTys = append(op.replyTys, paramTypes(op.outParams)...)
	})
}

// InParams returns the parameters a request body carries (in + inout).
// The returned slice is shared; callers must not modify it.
func (op *Operation) InParams() []Param {
	op.sig()
	return op.inParams
}

// OutParams returns the parameters a reply body carries (out + inout).
// The returned slice is shared; callers must not modify it.
func (op *Operation) OutParams() []Param {
	op.sig()
	return op.outParams
}

// inTypeList returns the TypeCodes of the request-body parameters.
func (op *Operation) inTypeList() []*typecode.TypeCode {
	op.sig()
	return op.inTypes
}

// replyTypeList returns the value types a reply body carries: the
// result (unless void) followed by out/inout parameters.
func (op *Operation) replyTypeList() []*typecode.TypeCode {
	op.sig()
	return op.replyTys
}

// Interface describes an IDL interface: the contract shared by stubs
// and skeletons.
type Interface struct {
	RepoID string
	Name   string
	Ops    map[string]*Operation
}

// NewInterface builds an Interface from a list of operations.
func NewInterface(repoID, name string, ops ...*Operation) *Interface {
	m := make(map[string]*Operation, len(ops))
	for _, op := range ops {
		m[op.Name] = op
	}
	return &Interface{RepoID: repoID, Name: name, Ops: m}
}

// Servant is an object implementation registered with the ORB. The
// skeleton code generated by idlgen implements Servant and forwards to
// the user's Go methods.
type Servant interface {
	// Interface returns the IDL contract this servant implements.
	Interface() *Interface
	// Invoke executes the named operation. args holds the in/inout
	// parameter values in declaration order; the servant returns the
	// result value (nil for void) and the out/inout values in
	// declaration order. A returned *UserException travels to the
	// client as a user exception; any other error becomes a CORBA
	// system exception. The args slice is the ORB's and is reused once
	// Invoke returns; the values in it are the servant's to keep, but
	// for a plain sequence<octet> argument's []byte, whose storage the
	// ORB reuses too: a servant that keeps one past Invoke copies it.
	Invoke(op string, args []any) (result any, outs []any, err error)
}

// CompletionStatus reports how far an operation got before a system
// exception.
type CompletionStatus uint32

// Completion status values.
const (
	CompletedYes   CompletionStatus = 0
	CompletedNo    CompletionStatus = 1
	CompletedMaybe CompletionStatus = 2
)

// SystemException is a CORBA system exception (COMM_FAILURE,
// OBJECT_NOT_EXIST, ...).
type SystemException struct {
	// Name is the unscoped exception name, e.g. "BAD_OPERATION".
	Name      string
	Minor     uint32
	Completed CompletionStatus
}

// Error implements the error interface.
func (e *SystemException) Error() string {
	return fmt.Sprintf("CORBA system exception %s (minor %d, completed %d)",
		e.Name, e.Minor, e.Completed)
}

// RepoID returns the OMG repository ID of the exception.
func (e *SystemException) RepoID() string {
	return "IDL:omg.org/CORBA/" + e.Name + ":1.0"
}

// Standard system exceptions used by this ORB.
func sysex(name string, completed CompletionStatus) *SystemException {
	return &SystemException{Name: name, Completed: completed}
}

// LocationForward, returned as an error from a servant's Invoke,
// makes the ORB answer with a GIOP LOCATION_FORWARD reply: the client
// transparently retries the invocation against To. It implements
// object migration and redirection (e.g. a home location agent
// forwarding to the object's current host).
type LocationForward struct {
	// To is the reference the client should use instead.
	To ior.IOR
}

// Error implements the error interface.
func (e *LocationForward) Error() string {
	return "CORBA location forward to " + e.To.TypeID
}

// UserException is an IDL-declared exception raised by a servant.
type UserException struct {
	// Type is the struct TypeCode describing the exception body; its
	// repository ID identifies the exception on the wire.
	Type *typecode.TypeCode
	// Fields holds the member values in declaration order.
	Fields []any
}

// Error implements the error interface.
func (e *UserException) Error() string {
	return fmt.Sprintf("CORBA user exception %s", e.Type.RepoID())
}
