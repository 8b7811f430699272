package orb

import (
	"errors"
	"sync"

	"zcorba/internal/cdr"
	"zcorba/internal/typecode"
)

// Compiled-marshaler dispatch (docs/IDL.md "Compiled marshalers").
//
// idlgen emits static MarshalCDR/UnmarshalCDR methods for every named
// IDL type and registers per-TypeCode codec functions at package init.
// The ORB prefers these over the typecode interpreter: on the marshal
// side any value that implements CDRMarshaler writes itself; on the
// demarshal side the parameter's TypeCode is looked up in the registry
// to reconstruct the concrete Go type. Both paths produce bytes
// identical to the interpreter (the differential fuzz target in
// internal/gentest keeps them honest) — only the per-element interface
// boxing and typecode walk are gone.
//
// The registry is keyed by TypeCode pointer identity, not structural
// equality: the TypeCode vars in generated contracts are shared by
// stubs, skeletons and the ORB, so lookups hit for SII calls, while
// structurally equal TypeCodes built by dynamic callers miss and take
// the interpreter — exactly the fallback the dynamic path needs, since
// its values use the generic []any form.

// CDRMarshaler is implemented by idlgen-generated types that can write
// themselves directly onto a CDR stream.
type CDRMarshaler interface {
	MarshalCDR(*cdr.Encoder) error
}

// ErrCDRFallback is returned by registered codec functions when the
// runtime value does not have the generated concrete type (a dynamic
// caller passing the generic []any form). The registering codec must
// return it before writing any bytes so the caller can cleanly
// re-dispatch to the interpreter.
var ErrCDRFallback = errors.New("orb: value requires interpreter marshaling")

// cdrCodec is a registered encode/decode pair for one TypeCode.
type cdrCodec struct {
	enc func(*cdr.Encoder, any) error
	dec func(*cdr.Decoder) (any, error)
}

var (
	codecMu  sync.RWMutex
	cdrCodes = map[*typecode.TypeCode]cdrCodec{}
)

// RegisterCDRCodec associates compiled codec functions with tc.
// Generated packages call this from init(); registering the same
// TypeCode again replaces the previous entry. enc must return
// ErrCDRFallback (before writing anything) when v is not the generated
// concrete type.
func RegisterCDRCodec(tc *typecode.TypeCode,
	enc func(*cdr.Encoder, any) error,
	dec func(*cdr.Decoder) (any, error)) {
	if tc == nil {
		return
	}
	codecMu.Lock()
	cdrCodes[tc] = cdrCodec{enc: enc, dec: dec}
	codecMu.Unlock()
}

// lookupCDRCodec returns the codec registered for tc, if any.
func lookupCDRCodec(tc *typecode.TypeCode) (cdrCodec, bool) {
	codecMu.RLock()
	c, ok := cdrCodes[tc]
	codecMu.RUnlock()
	return c, ok
}
