// Package typecode implements CORBA TypeCodes: runtime descriptions of
// IDL types used by the ORB's marshaling engine.
//
// Every IDL type that can travel in a GIOP message is described by a
// *TypeCode. Like MICO, the ORB assigns each type family an integer
// Type Identifier (TID); the paper's zero-copy extension introduces a
// new TID (TIDZCOctet) whose sequence form is wire-compatible with
// sequence<octet> but is handled by the direct-deposit fast path
// instead of the general marshal interpreter.
package typecode

import (
	"fmt"
	"strings"

	"zcorba/internal/cdr"
)

// Kind enumerates the TypeCode kinds supported by this ORB, a practical
// subset of the CORBA type system sufficient for the paper's workloads.
type Kind int

// TypeCode kinds. The values double as wire TIDs, mirroring MICO's
// MICO_TID_* constants; TIDZCOctet is the paper's extension (§4.3).
const (
	Null Kind = iota
	Void
	Short
	Long
	UShort
	ULong
	LongLong
	ULongLong
	Float
	Double
	Boolean
	Char
	Octet
	String
	Sequence
	Array
	Struct
	Enum
	Alias
	ObjRef
	// ZCOctet is the element kind of the paper's zero-copy octet
	// stream. Its representation and wire format are isomorphic to
	// Octet; only the ORB's handling differs (§4.3: "whose
	// representation and API is isomorphic to the standard Octet").
	ZCOctet
	// Any is the CORBA any type: a self-describing value carrying its
	// own TypeCode on the wire.
	Any
	// TypeCodeKind is the CORBA TypeCode type (tk_TypeCode): values of
	// this kind are themselves *TypeCode, marshaled in the TypeCode
	// transfer syntax.
	TypeCodeKind
)

var kindNames = [...]string{
	Null: "null", Void: "void", Short: "short", Long: "long",
	UShort: "ushort", ULong: "ulong", LongLong: "longlong",
	ULongLong: "ulonglong", Float: "float", Double: "double",
	Boolean: "boolean", Char: "char", Octet: "octet", String: "string",
	Sequence: "sequence", Array: "array", Struct: "struct", Enum: "enum",
	Alias: "alias", ObjRef: "Object", ZCOctet: "zcoctet", Any: "any",
	TypeCodeKind: "TypeCode",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Member is a named field of a struct TypeCode.
type Member struct {
	Name string
	Type *TypeCode
}

// TypeCode describes one IDL type. TypeCodes are immutable after
// construction; the package-level constructors are the only way to
// build them.
type TypeCode struct {
	kind    Kind
	name    string
	repoID  string
	elem    *TypeCode // Sequence, Array, Alias
	length  int       // Sequence bound (0 = unbounded), Array length
	members []Member  // Struct
	labels  []string  // Enum
}

// Predefined TypeCodes for the primitive kinds.
var (
	TCNull      = &TypeCode{kind: Null}
	TCVoid      = &TypeCode{kind: Void}
	TCShort     = &TypeCode{kind: Short}
	TCLong      = &TypeCode{kind: Long}
	TCUShort    = &TypeCode{kind: UShort}
	TCULong     = &TypeCode{kind: ULong}
	TCLongLong  = &TypeCode{kind: LongLong}
	TCULongLong = &TypeCode{kind: ULongLong}
	TCFloat     = &TypeCode{kind: Float}
	TCDouble    = &TypeCode{kind: Double}
	TCBoolean   = &TypeCode{kind: Boolean}
	TCChar      = &TypeCode{kind: Char}
	TCOctet     = &TypeCode{kind: Octet}
	TCString    = &TypeCode{kind: String}
	TCZCOctet   = &TypeCode{kind: ZCOctet}
	TCAny       = &TypeCode{kind: Any}
	TCTypeCode  = &TypeCode{kind: TypeCodeKind}
	TCObjRef    = &TypeCode{kind: ObjRef, repoID: "IDL:omg.org/CORBA/Object:1.0"}
)

// AnyValue is the Go representation of a CORBA any: the value plus the
// TypeCode describing it.
type AnyValue struct {
	Type  *TypeCode
	Value any
}

// TCOctetSeq is the TypeCode of sequence<octet>, the paper's baseline
// bulk type.
var TCOctetSeq = SequenceOf(TCOctet, 0)

// TCZCOctetSeq is the TypeCode of sequence<ZC_Octet>, the paper's
// zero-copy bulk type (§4.3).
var TCZCOctetSeq = SequenceOf(TCZCOctet, 0)

// SequenceOf returns the TypeCode of sequence<elem>, with bound 0
// meaning unbounded.
func SequenceOf(elem *TypeCode, bound int) *TypeCode {
	return &TypeCode{kind: Sequence, elem: elem, length: bound}
}

// ArrayOf returns the TypeCode of elem[length].
func ArrayOf(elem *TypeCode, length int) *TypeCode {
	return &TypeCode{kind: Array, elem: elem, length: length}
}

// StructOf returns a struct TypeCode with the given repository ID,
// name, and members.
func StructOf(repoID, name string, members ...Member) *TypeCode {
	return &TypeCode{kind: Struct, repoID: repoID, name: name, members: members}
}

// EnumOf returns an enum TypeCode with the given labels.
func EnumOf(repoID, name string, labels ...string) *TypeCode {
	return &TypeCode{kind: Enum, repoID: repoID, name: name, labels: labels}
}

// AliasOf returns a typedef TypeCode.
func AliasOf(repoID, name string, orig *TypeCode) *TypeCode {
	return &TypeCode{kind: Alias, repoID: repoID, name: name, elem: orig}
}

// ObjRefOf returns an object-reference TypeCode for the given
// repository ID.
func ObjRefOf(repoID, name string) *TypeCode {
	return &TypeCode{kind: ObjRef, repoID: repoID, name: name}
}

// Kind reports the TypeCode's kind.
func (tc *TypeCode) Kind() Kind { return tc.kind }

// Name reports the declared name (empty for anonymous types).
func (tc *TypeCode) Name() string { return tc.name }

// RepoID reports the repository ID (empty for anonymous types).
func (tc *TypeCode) RepoID() string { return tc.repoID }

// Elem reports the content type of a sequence, array, or alias.
func (tc *TypeCode) Elem() *TypeCode { return tc.elem }

// Len reports the sequence bound or array length.
func (tc *TypeCode) Len() int { return tc.length }

// Members reports the fields of a struct TypeCode.
func (tc *TypeCode) Members() []Member { return tc.members }

// Labels reports the labels of an enum TypeCode.
func (tc *TypeCode) Labels() []string { return tc.labels }

// Resolve follows alias chains to the underlying TypeCode.
func (tc *TypeCode) Resolve() *TypeCode {
	for tc.kind == Alias {
		tc = tc.elem
	}
	return tc
}

// IsZCOctetSeq reports whether the (alias-resolved) type is the
// zero-copy octet stream, i.e. eligible for direct deposit.
func (tc *TypeCode) IsZCOctetSeq() bool {
	r := tc.Resolve()
	return r.kind == Sequence && r.elem.Resolve().kind == ZCOctet
}

// IsOctetSeq reports whether the (alias-resolved) type is a plain
// sequence<octet>.
func (tc *TypeCode) IsOctetSeq() bool {
	r := tc.Resolve()
	return r.kind == Sequence && r.elem.Resolve().kind == Octet
}

// Equal reports deep structural equality, treating ZCOctet and Octet
// as distinct (they differ in TID, as in the paper's MICO_TID_ZC_OCTET).
func (tc *TypeCode) Equal(o *TypeCode) bool {
	if tc == o {
		return true
	}
	if tc == nil || o == nil || tc.kind != o.kind {
		return false
	}
	switch tc.kind {
	case Sequence, Array:
		return tc.length == o.length && tc.elem.Equal(o.elem)
	case Alias:
		return tc.name == o.name && tc.elem.Equal(o.elem)
	case Struct:
		if tc.name != o.name || len(tc.members) != len(o.members) {
			return false
		}
		for i := range tc.members {
			if tc.members[i].Name != o.members[i].Name ||
				!tc.members[i].Type.Equal(o.members[i].Type) {
				return false
			}
		}
		return true
	case Enum:
		if tc.name != o.name || len(tc.labels) != len(o.labels) {
			return false
		}
		for i := range tc.labels {
			if tc.labels[i] != o.labels[i] {
				return false
			}
		}
		return true
	case ObjRef:
		return tc.repoID == o.repoID
	default:
		return true
	}
}

// Equivalent is like Equal but follows aliases first, per CORBA
// TypeCode::equivalent semantics.
func (tc *TypeCode) Equivalent(o *TypeCode) bool {
	return tc.Resolve().Equal(o.Resolve())
}

// String renders the TypeCode in IDL-like notation.
func (tc *TypeCode) String() string {
	if tc == nil {
		return "<nil>"
	}
	switch tc.kind {
	case Sequence:
		if tc.length > 0 {
			return fmt.Sprintf("sequence<%s,%d>", tc.elem, tc.length)
		}
		return fmt.Sprintf("sequence<%s>", tc.elem)
	case Array:
		return fmt.Sprintf("%s[%d]", tc.elem, tc.length)
	case Struct:
		var b strings.Builder
		fmt.Fprintf(&b, "struct %s{", tc.name)
		for i, m := range tc.members {
			if i > 0 {
				b.WriteByte(';')
			}
			fmt.Fprintf(&b, "%s %s", m.Type, m.Name)
		}
		b.WriteByte('}')
		return b.String()
	case Enum:
		return fmt.Sprintf("enum %s{%s}", tc.name, strings.Join(tc.labels, ","))
	case Alias:
		return fmt.Sprintf("typedef %s %s", tc.elem, tc.name)
	case ObjRef:
		if tc.name != "" {
			return "interface " + tc.name
		}
		return "Object"
	default:
		return tc.kind.String()
	}
}

// Marshal writes the TypeCode itself onto a CDR stream: the kind as a
// ulong, followed (for constructed kinds) by a parameter encapsulation,
// following the shape of the CORBA TypeCode transfer syntax.
func (tc *TypeCode) Marshal(e *cdr.Encoder) {
	e.WriteULong(uint32(tc.kind))
	switch tc.kind {
	case Sequence, Array:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			tc.elem.Marshal(inner)
			inner.WriteULong(uint32(tc.length))
		})
	case Alias:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			inner.WriteString(tc.repoID + "\x7f") // see note below
			inner.WriteString(tc.name + "\x7f")
			tc.elem.Marshal(inner)
		})
	case Struct:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			inner.WriteString(tc.repoID + "\x7f")
			inner.WriteString(tc.name + "\x7f")
			inner.WriteULong(uint32(len(tc.members)))
			for _, m := range tc.members {
				inner.WriteString(m.Name)
				m.Type.Marshal(inner)
			}
		})
	case Enum:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			inner.WriteString(tc.repoID + "\x7f")
			inner.WriteString(tc.name + "\x7f")
			inner.WriteULong(uint32(len(tc.labels)))
			for _, l := range tc.labels {
				inner.WriteString(l)
			}
		})
	case ObjRef:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			inner.WriteString(tc.repoID + "\x7f")
			inner.WriteString(tc.name + "\x7f")
		})
	}
}

// CDR strings cannot be empty in some legacy ORBs, and repository IDs
// and names may legitimately be empty here; we suffix them with a
// sentinel on the wire and strip it on decode.
func stripSentinel(s string) string { return strings.TrimSuffix(s, "\x7f") }

// Unmarshal reads a TypeCode previously written by Marshal.
func Unmarshal(d *cdr.Decoder) (*TypeCode, error) {
	return unmarshalDepth(d, 0)
}

// maxTCDepth bounds recursion so a malicious stream of nested
// constructed kinds cannot overflow the stack.
const maxTCDepth = 64

func unmarshalDepth(d *cdr.Decoder, depth int) (*TypeCode, error) {
	if depth > maxTCDepth {
		return nil, fmt.Errorf("typecode: nesting exceeds %d", maxTCDepth)
	}
	k, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("typecode: reading kind: %w", err)
	}
	kind := Kind(k)
	switch kind {
	case Null, Void, Short, Long, UShort, ULong, LongLong, ULongLong,
		Float, Double, Boolean, Char, Octet, String, ZCOctet, Any,
		TypeCodeKind:
		return simple(kind), nil
	case Sequence, Array:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		elem, err := unmarshalDepth(inner, depth+1)
		if err != nil {
			return nil, err
		}
		n, err := inner.ReadULong()
		if err != nil {
			return nil, err
		}
		if kind == Sequence {
			return SequenceOf(elem, int(n)), nil
		}
		return ArrayOf(elem, int(n)), nil
	case Alias:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		id, name, err := readIDName(inner)
		if err != nil {
			return nil, err
		}
		elem, err := unmarshalDepth(inner, depth+1)
		if err != nil {
			return nil, err
		}
		return AliasOf(id, name, elem), nil
	case Struct:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		id, name, err := readIDName(inner)
		if err != nil {
			return nil, err
		}
		n, err := inner.ReadULong()
		if err != nil {
			return nil, err
		}
		if n > 4096 {
			return nil, fmt.Errorf("typecode: struct with %d members", n)
		}
		members := make([]Member, n)
		for i := range members {
			mname, err := inner.ReadString()
			if err != nil {
				return nil, err
			}
			mtc, err := unmarshalDepth(inner, depth+1)
			if err != nil {
				return nil, err
			}
			members[i] = Member{Name: mname, Type: mtc}
		}
		return StructOf(id, name, members...), nil
	case Enum:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		id, name, err := readIDName(inner)
		if err != nil {
			return nil, err
		}
		n, err := inner.ReadULong()
		if err != nil {
			return nil, err
		}
		if n > 4096 {
			return nil, fmt.Errorf("typecode: enum with %d labels", n)
		}
		labels := make([]string, n)
		for i := range labels {
			if labels[i], err = inner.ReadString(); err != nil {
				return nil, err
			}
		}
		return EnumOf(id, name, labels...), nil
	case ObjRef:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		id, name, err := readIDName(inner)
		if err != nil {
			return nil, err
		}
		return ObjRefOf(id, name), nil
	default:
		return nil, fmt.Errorf("typecode: unknown kind %d", k)
	}
}

func readIDName(d *cdr.Decoder) (id, name string, err error) {
	id, err = d.ReadString()
	if err != nil {
		return "", "", err
	}
	name, err = d.ReadString()
	if err != nil {
		return "", "", err
	}
	return stripSentinel(id), stripSentinel(name), nil
}

func simple(k Kind) *TypeCode {
	switch k {
	case Null:
		return TCNull
	case Void:
		return TCVoid
	case Short:
		return TCShort
	case Long:
		return TCLong
	case UShort:
		return TCUShort
	case ULong:
		return TCULong
	case LongLong:
		return TCLongLong
	case ULongLong:
		return TCULongLong
	case Float:
		return TCFloat
	case Double:
		return TCDouble
	case Boolean:
		return TCBoolean
	case Char:
		return TCChar
	case Octet:
		return TCOctet
	case String:
		return TCString
	case ZCOctet:
		return TCZCOctet
	case Any:
		return TCAny
	case TypeCodeKind:
		return TCTypeCode
	default:
		return &TypeCode{kind: k}
	}
}
