// Package giop implements the General Inter-ORB Protocol message
// formats (version 1.0, with 1.1-style fragmentation accepted on
// receive) used for ORB-to-ORB communication over IIOP.
//
// The zero-copy extension keeps every message wire-compatible with
// standard GIOP — "while still preserving the standard Internet
// InterORB Protocol" (abstract) — and signals direct-deposit payloads
// through an additional service context (ZCDepositContext), the
// separation of control and data transfer described in §4.4: the
// request header and control parameters travel as a normal GIOP
// Request; the bulk payload follows on the data path and is deposited
// straight into a receiver buffer sized from the context.
package giop

import (
	"encoding/binary"
	"fmt"
	"io"

	"zcorba/internal/cdr"
)

// HeaderSize is the fixed size of the GIOP message header.
const HeaderSize = 12

// MsgType enumerates GIOP message types.
type MsgType byte

// GIOP message types (CORBA 2.x).
const (
	MsgRequest         MsgType = 0
	MsgReply           MsgType = 1
	MsgCancelRequest   MsgType = 2
	MsgLocateRequest   MsgType = 3
	MsgLocateReply     MsgType = 4
	MsgCloseConnection MsgType = 5
	MsgMessageError    MsgType = 6
	MsgFragment        MsgType = 7
)

var msgNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError", "Fragment",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Header flag bits (GIOP 1.1+ layout; in 1.0 the byte holds only the
// byte-order boolean, which occupies the same bit).
const (
	// FlagLittleEndian marks the message body as little-endian.
	FlagLittleEndian byte = 1 << 0
	// FlagMoreFragments marks the message as continued by Fragment
	// messages.
	FlagMoreFragments byte = 1 << 1
)

// Header is the fixed 12-byte GIOP message header.
type Header struct {
	Major, Minor byte
	Flags        byte
	Type         MsgType
	// Size is the length of the message body following the header.
	Size uint32
}

// Order returns the byte order of the message body.
func (h Header) Order() cdr.ByteOrder {
	return cdr.ByteOrder(h.Flags & FlagLittleEndian)
}

// MoreFragments reports whether Fragment messages follow.
func (h Header) MoreFragments() bool { return h.Flags&FlagMoreFragments != 0 }

var magic = [4]byte{'G', 'I', 'O', 'P'}

// MaxMessageSize bounds accepted message bodies; the paper's largest
// benchmark block is 16 MiB, and a deposit-path transfer never places
// bulk data in the GIOP body anyway.
const MaxMessageSize = 64 << 20

// EncodeHeader writes the 12-byte header into dst, which must have
// room. The message-size field is always encoded in the body's byte
// order, as the spec requires.
func EncodeHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	copy(dst, magic[:])
	dst[4], dst[5] = h.Major, h.Minor
	dst[6] = h.Flags
	dst[7] = byte(h.Type)
	if h.Order() == cdr.BigEndian {
		dst[8], dst[9], dst[10], dst[11] = byte(h.Size>>24), byte(h.Size>>16), byte(h.Size>>8), byte(h.Size)
	} else {
		dst[8], dst[9], dst[10], dst[11] = byte(h.Size), byte(h.Size>>8), byte(h.Size>>16), byte(h.Size>>24)
	}
}

// DecodeHeader parses a 12-byte header.
func DecodeHeader(src []byte) (Header, error) {
	var h Header
	if len(src) < HeaderSize {
		return h, fmt.Errorf("giop: header truncated (%d bytes)", len(src))
	}
	if [4]byte(src[:4]) != magic {
		return h, fmt.Errorf("giop: bad magic %q", src[:4])
	}
	h.Major, h.Minor = src[4], src[5]
	if h.Major != 1 {
		return h, fmt.Errorf("giop: unsupported version %d.%d", h.Major, h.Minor)
	}
	h.Flags = src[6]
	h.Type = MsgType(src[7])
	if h.Type > MsgFragment {
		return h, fmt.Errorf("giop: unknown message type %d", src[7])
	}
	if h.Order() == cdr.BigEndian {
		h.Size = uint32(src[8])<<24 | uint32(src[9])<<16 | uint32(src[10])<<8 | uint32(src[11])
	} else {
		h.Size = uint32(src[11])<<24 | uint32(src[10])<<16 | uint32(src[9])<<8 | uint32(src[8])
	}
	if h.Size > MaxMessageSize {
		return h, fmt.Errorf("giop: message size %d exceeds limit", h.Size)
	}
	return h, nil
}

// ReadHeader reads and parses a header from r.
func ReadHeader(r io.Reader) (Header, error) {
	var buf [HeaderSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Header{}, err
	}
	return DecodeHeader(buf[:])
}

// ServiceContext is an entry of a GIOP service context list.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// Service context IDs.
const (
	// ZCDepositContextID marks a request or reply whose ZC parameters
	// travel on the data path (vendor range; the paper's MICO fork
	// would use a MICO-private ID the same way).
	ZCDepositContextID uint32 = 0x5A430002
	// TraceContextID carries the per-invocation trace context of
	// internal/trace: 16 bytes, the trace ID and the sender's span ID,
	// both big-endian. Added only when tracing is enabled, so messages
	// without a trace context are byte-identical to the untraced wire
	// format (locked down by the golden-vector conformance suite).
	TraceContextID uint32 = 0x5A430003
)

// TraceContext is the payload of the trace service context. Unlike
// DepositInfo it is a fixed-width big-endian blob, not a CDR
// encapsulation: 16 bytes decode the same regardless of the carrying
// message's byte order, and encoding needs no CDR machinery on the
// hot path.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// traceContextLen is the fixed encoded size of a TraceContext.
const traceContextLen = 16

// Encode serializes the trace context as a service context.
func (tc TraceContext) Encode() ServiceContext {
	return tc.EncodeTo(make([]byte, traceContextLen))
}

// EncodeTo is Encode into caller storage: the context's Data is
// buf[:16], which must have room.
func (tc TraceContext) EncodeTo(buf []byte) ServiceContext {
	data := buf[:traceContextLen]
	binary.BigEndian.PutUint64(data[:8], tc.TraceID)
	binary.BigEndian.PutUint64(data[8:], tc.SpanID)
	return ServiceContext{ID: TraceContextID, Data: data}
}

// DecodeTraceContext parses a trace service context body.
func DecodeTraceContext(data []byte) (TraceContext, error) {
	if len(data) < traceContextLen {
		return TraceContext{}, fmt.Errorf("giop: trace context is %d bytes, want %d",
			len(data), traceContextLen)
	}
	return TraceContext{
		TraceID: binary.BigEndian.Uint64(data[:8]),
		SpanID:  binary.BigEndian.Uint64(data[8:16]),
	}, nil
}

// FindTraceContext extracts the trace context from a service context
// list, if present and well-formed.
func FindTraceContext(scs []ServiceContext) (TraceContext, bool) {
	data, ok := Find(scs, TraceContextID)
	if !ok {
		return TraceContext{}, false
	}
	tc, err := DecodeTraceContext(data)
	return tc, err == nil
}

func writeServiceContexts(e *cdr.Encoder, scs []ServiceContext) {
	e.WriteULong(uint32(len(scs)))
	for _, sc := range scs {
		e.WriteULong(sc.ID)
		e.WriteOctetSeq(sc.Data)
	}
}

// readServiceContexts reads a service context list into scs[:0],
// reusing its storage. Each context's Data is a view of d's buffer.
func readServiceContexts(d *cdr.Decoder, scs []ServiceContext) ([]ServiceContext, error) {
	scs = scs[:0]
	n, err := d.ReadULong()
	if err != nil {
		return scs, fmt.Errorf("giop: service context count: %w", err)
	}
	if n > 256 {
		return scs, fmt.Errorf("giop: %d service contexts", n)
	}
	for i := uint32(0); i < n; i++ {
		var sc ServiceContext
		if sc.ID, err = d.ReadULong(); err != nil {
			return scs, fmt.Errorf("giop: service context id: %w", err)
		}
		if sc.Data, err = d.ReadOctetSeqView(); err != nil {
			return scs, fmt.Errorf("giop: service context data: %w", err)
		}
		scs = append(scs, sc)
	}
	return scs, nil
}

// Find returns the first context with the given ID.
func Find(scs []ServiceContext, id uint32) ([]byte, bool) {
	for _, sc := range scs {
		if sc.ID == id {
			return sc.Data, true
		}
	}
	return nil, false
}

// RequestHeader is the GIOP 1.0 Request header.
type RequestHeader struct {
	ServiceContexts  []ServiceContext
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        []byte
}

// Marshal writes the request header onto e.
func (h *RequestHeader) Marshal(e *cdr.Encoder) {
	writeServiceContexts(e, h.ServiceContexts)
	e.WriteULong(h.RequestID)
	e.WriteBoolean(h.ResponseExpected)
	e.WriteOctetSeq(h.ObjectKey)
	e.WriteString(h.Operation)
	e.WriteOctetSeq(h.Principal)
}

// UnmarshalRequestHeader reads a request header from d. The byte
// fields are views of d's buffer, as Unmarshal describes.
func UnmarshalRequestHeader(d *cdr.Decoder) (RequestHeader, error) {
	var h RequestHeader
	err := h.Unmarshal(d, nil)
	return h, err
}

// Unmarshal reads a request header from d into h, reusing the storage
// of h.ServiceContexts. ObjectKey, Principal and every context's Data
// are views of d's buffer and die with it. Operation is a string, so
// it never aliases the buffer: intern, when not nil, maps the wire
// name (with the object key it addresses) to a string that already
// exists, and a name it does not know is copied.
func (h *RequestHeader) Unmarshal(d *cdr.Decoder, intern func(key, op []byte) (string, bool)) error {
	var err error
	if h.ServiceContexts, err = readServiceContexts(d, h.ServiceContexts); err != nil {
		return err
	}
	if h.RequestID, err = d.ReadULong(); err != nil {
		return fmt.Errorf("giop: request id: %w", err)
	}
	if h.ResponseExpected, err = d.ReadBoolean(); err != nil {
		return fmt.Errorf("giop: response_expected: %w", err)
	}
	if h.ObjectKey, err = d.ReadOctetSeqView(); err != nil {
		return fmt.Errorf("giop: object key: %w", err)
	}
	op, err := d.ReadStringView()
	if err != nil {
		return fmt.Errorf("giop: operation: %w", err)
	}
	name, ok := "", false
	if intern != nil {
		name, ok = intern(h.ObjectKey, op)
	}
	if !ok {
		name = string(op)
	}
	h.Operation = name
	if h.Principal, err = d.ReadOctetSeqView(); err != nil {
		return fmt.Errorf("giop: principal: %w", err)
	}
	return nil
}

// ReplyStatus enumerates GIOP reply status values.
type ReplyStatus uint32

// Reply status values (CORBA 2.x).
const (
	ReplyNoException     ReplyStatus = 0
	ReplyUserException   ReplyStatus = 1
	ReplySystemException ReplyStatus = 2
	ReplyLocationForward ReplyStatus = 3
)

var replyNames = [...]string{
	"NO_EXCEPTION", "USER_EXCEPTION", "SYSTEM_EXCEPTION", "LOCATION_FORWARD",
}

func (s ReplyStatus) String() string {
	if int(s) < len(replyNames) {
		return replyNames[s]
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// ReplyHeader is the GIOP 1.0 Reply header.
type ReplyHeader struct {
	ServiceContexts []ServiceContext
	RequestID       uint32
	Status          ReplyStatus
}

// Marshal writes the reply header onto e.
func (h *ReplyHeader) Marshal(e *cdr.Encoder) {
	writeServiceContexts(e, h.ServiceContexts)
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// UnmarshalReplyHeader reads a reply header from d. Each service
// context's Data is a view of d's buffer.
func UnmarshalReplyHeader(d *cdr.Decoder) (ReplyHeader, error) {
	var h ReplyHeader
	err := h.Unmarshal(d)
	return h, err
}

// Unmarshal reads a reply header from d into h, reusing the storage of
// h.ServiceContexts. Each context's Data is a view of d's buffer and
// dies with it.
func (h *ReplyHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.ServiceContexts, err = readServiceContexts(d, h.ServiceContexts); err != nil {
		return err
	}
	if h.RequestID, err = d.ReadULong(); err != nil {
		return fmt.Errorf("giop: reply request id: %w", err)
	}
	s, err := d.ReadULong()
	if err != nil {
		return fmt.Errorf("giop: reply status: %w", err)
	}
	if s > uint32(ReplyLocationForward) {
		return fmt.Errorf("giop: invalid reply status %d", s)
	}
	h.Status = ReplyStatus(s)
	return nil
}

// LocateRequestHeader is the GIOP 1.0 LocateRequest header.
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// Marshal writes the locate-request header onto e.
func (h *LocateRequestHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
	e.WriteOctetSeq(h.ObjectKey)
}

// UnmarshalLocateRequestHeader reads a locate-request header from d.
func UnmarshalLocateRequestHeader(d *cdr.Decoder) (LocateRequestHeader, error) {
	var h LocateRequestHeader
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return h, fmt.Errorf("giop: locate request id: %w", err)
	}
	if h.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return h, fmt.Errorf("giop: locate object key: %w", err)
	}
	return h, nil
}

// LocateStatus enumerates LocateReply status values.
type LocateStatus uint32

// Locate status values.
const (
	LocateUnknownObject LocateStatus = 0
	LocateObjectHere    LocateStatus = 1
	LocateObjectForward LocateStatus = 2
)

// LocateReplyHeader is the GIOP 1.0 LocateReply header.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// Marshal writes the locate-reply header onto e.
func (h *LocateReplyHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// UnmarshalLocateReplyHeader reads a locate-reply header from d.
func UnmarshalLocateReplyHeader(d *cdr.Decoder) (LocateReplyHeader, error) {
	var h LocateReplyHeader
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return h, fmt.Errorf("giop: locate reply id: %w", err)
	}
	s, err := d.ReadULong()
	if err != nil {
		return h, fmt.Errorf("giop: locate reply status: %w", err)
	}
	if s > uint32(LocateObjectForward) {
		return h, fmt.Errorf("giop: invalid locate status %d", s)
	}
	h.Status = LocateStatus(s)
	return h, nil
}

// CancelRequestHeader is the GIOP CancelRequest header.
type CancelRequestHeader struct {
	RequestID uint32
}

// Marshal writes the cancel-request header onto e.
func (h *CancelRequestHeader) Marshal(e *cdr.Encoder) { e.WriteULong(h.RequestID) }

// UnmarshalCancelRequestHeader reads a cancel-request header from d.
func UnmarshalCancelRequestHeader(d *cdr.Decoder) (CancelRequestHeader, error) {
	id, err := d.ReadULong()
	if err != nil {
		return CancelRequestHeader{}, fmt.Errorf("giop: cancel request id: %w", err)
	}
	return CancelRequestHeader{RequestID: id}, nil
}

// DepositInfo is the payload of the ZCDeposit service context: the
// architecture signature of the sender, a token, and the byte size of
// each zero-copy parameter, in parameter order. The receiver uses the sizes
// to allocate page-aligned deposit buffers before the data arrives
// (§4.5: "the receiver reads the size of the following direct deposit
// block and allocates an appropriately sized and aligned buffer").
//
// Inline marks a train that rides the message's stream: its bytes
// follow the message's last frame directly, before the next message.
// Without it the train travels the shared-memory ring beside the
// stream. The marker is one trailing flags octet (bit 0) written only
// when set, so every announcement without it is byte-identical to the
// unmarked format. Token once named a separate data connection; it
// stays on the wire so the format is unchanged, is written as 0 and is
// ignored on receipt.
type DepositInfo struct {
	Arch   string
	Token  uint64
	Sizes  []uint32
	Inline bool
}

// depositInline is the flags-octet bit of DepositInfo.Inline.
const depositInline = 1

// Encode serializes the deposit info as a service context.
func (di DepositInfo) Encode() ServiceContext { return di.EncodeTo(nil) }

// EncodeTo is Encode into caller storage: the context's Data is built
// from buf[0] on, and allocates only if buf's capacity is short.
func (di DepositInfo) EncodeTo(buf []byte) ServiceContext {
	var e cdr.Encoder
	e.ResetTo(buf, cdr.NativeOrder, 0)
	e.WriteOctet(byte(cdr.NativeOrder))
	e.WriteString(di.Arch)
	e.WriteULongLong(di.Token)
	e.WriteULong(uint32(len(di.Sizes)))
	for _, s := range di.Sizes {
		e.WriteULong(s)
	}
	if di.Inline {
		e.WriteOctet(depositInline)
	}
	return ServiceContext{ID: ZCDepositContextID, Data: e.Bytes()}
}

// DecodeDepositInfo parses a ZCDeposit service context body.
func DecodeDepositInfo(data []byte) (DepositInfo, error) {
	var di DepositInfo
	err := di.Decode(data)
	return di, err
}

// Decode parses a ZCDeposit service context body into di, reusing the
// storage of di.Sizes. Arch keeps its string when the announced one is
// the same, so a connection's announcements decode without allocating.
func (di *DepositInfo) Decode(data []byte) error {
	di.Sizes, di.Inline = di.Sizes[:0], false
	if len(data) < 1 {
		return fmt.Errorf("giop: empty deposit context")
	}
	var d cdr.Decoder
	d.Reset(cdr.ByteOrder(data[0]&1), 1, data[1:])
	arch, err := d.ReadStringView()
	if err != nil {
		return fmt.Errorf("giop: deposit arch: %w", err)
	}
	if di.Arch != string(arch) {
		di.Arch = string(arch)
	}
	if di.Token, err = d.ReadULongLong(); err != nil {
		return fmt.Errorf("giop: deposit token: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return fmt.Errorf("giop: deposit count: %w", err)
	}
	if n > 256 {
		return fmt.Errorf("giop: %d deposit blocks", n)
	}
	for i := uint32(0); i < n; i++ {
		size, err := d.ReadULong()
		if err != nil {
			return fmt.Errorf("giop: deposit size: %w", err)
		}
		// Zero-length deposit blocks are rejected here, in defensive
		// parity with the MaxMessageSize bound: a legitimate sender
		// never announces one (empty ZC values take the marshaled
		// path), so a vector of zero sizes is a hostile shape that
		// would otherwise spin the receiver through empty deposit-loop
		// iterations, allocating a lease and buffer envelope per entry
		// for no payload. An EMPTY vector stays legal — it is the pure
		// announcement that a reply may carry deposits.
		if size == 0 {
			return fmt.Errorf("giop: zero-length deposit block %d of %d", i, n)
		}
		di.Sizes = append(di.Sizes, size)
	}
	if d.Remaining() > 0 {
		flags, _ := d.ReadOctet()
		di.Inline = flags&depositInline != 0
	}
	return nil
}

// Total returns the summed payload size, guarding against overflow.
func (di DepositInfo) Total() (int64, error) {
	var t int64
	for _, s := range di.Sizes {
		t += int64(s)
		if t > MaxDepositTotal {
			return 0, fmt.Errorf("giop: deposit total exceeds %d", int64(MaxDepositTotal))
		}
	}
	return t, nil
}

// MaxDepositTotal bounds the summed direct-deposit payload of one
// request (1 GiB).
const MaxDepositTotal = 1 << 30
