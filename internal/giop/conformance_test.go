package giop

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zcorba/internal/cdr"
	"zcorba/internal/ior"
)

// The wire-conformance suite locks the GIOP/CDR byte format against
// canonical fixtures under testdata/: every vector is a complete
// message (12-byte header plus body) in both byte orders, and the test
// asserts (a) that encoding the reference value reproduces the fixture
// byte for byte and (b) that decoding the fixture and re-marshaling it
// round-trips losslessly. Regenerate fixtures deliberately with
//
//	go test ./internal/giop -run TestWireVectors -update
//
// after which `git diff internal/giop/testdata` is the wire-format
// change under review.
var update = flag.Bool("update", false, "rewrite the golden wire vectors")

// vecOrders names the two byte orders a vector is emitted in.
var vecOrders = []struct {
	name  string
	order cdr.ByteOrder
}{
	{"be", cdr.BigEndian},
	{"le", cdr.LittleEndian},
}

// orderFlags returns the GIOP header flag byte for a body order.
func orderFlags(order cdr.ByteOrder) byte {
	if order == cdr.LittleEndian {
		return FlagLittleEndian
	}
	return 0
}

// buildMessage assembles header+body for one logical message.
func buildMessage(t MsgType, order cdr.ByteOrder, flags byte, marshal func(*cdr.Encoder)) []byte {
	e := cdr.NewEncoder(order, HeaderSize)
	marshal(e)
	body := e.Bytes()
	msg := make([]byte, HeaderSize+len(body))
	EncodeHeader(msg, Header{
		Major: 1, Minor: 0,
		Flags: orderFlags(order) | flags,
		Type:  t,
		Size:  uint32(len(body)),
	})
	copy(msg[HeaderSize:], body)
	return msg
}

// Reference values. The deposit context's inner encapsulation is
// always cdr.NativeOrder (a compile-time constant), so these bytes are
// identical on every machine.
func vecRequestPlain() RequestHeader {
	return RequestHeader{
		RequestID:        0x01020304,
		ResponseExpected: true,
		ObjectKey:        []byte("ttcp-sink"),
		Operation:        "put",
		Principal:        []byte{},
	}
}

func vecRequestZC() RequestHeader {
	h := RequestHeader{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("store/0"),
		Operation:        "zput",
		Principal:        []byte{},
	}
	h.ServiceContexts = append(h.ServiceContexts, DepositInfo{
		Arch:  "amd64/little/go",
		Token: 0x1122334455667788,
		Sizes: []uint32{4096, 65536},
	}.Encode())
	h.ServiceContexts = append(h.ServiceContexts, TraceContext{
		TraceID: 0xA1A2A3A4A5A6A7A8,
		SpanID:  0xB1B2B3B4B5B6B7B8,
	}.Encode())
	return h
}

func vecZCShmIOR() ior.IOR {
	shm := ior.ZCShm{
		Arch:   "amd64/little/go",
		HostID: "0123456789abcdef0123456789abcdef",
		Path:   "shm:///run/zcorba/data.sock",
	}
	return ior.NewIIOP("IDL:test/Store:1.0", "10.0.0.2", 9900,
		[]byte("store/0"), shm.Encode())
}

func vecBcastIOR() ior.IOR {
	bc := ior.ZCShmBcast{
		Arch:   "amd64/little/go",
		HostID: "0123456789abcdef0123456789abcdef",
		Path:   "bcast:///run/zcorba/events.sock",
	}
	return ior.NewIIOP("IDL:zcorba/EventChannel:1.0", "10.0.0.2", 9900,
		[]byte("events/0"), bc.Encode())
}

func vecReplyPlain() ReplyHeader {
	return ReplyHeader{RequestID: 0x01020304, Status: ReplyNoException}
}

func vecReplyZC() ReplyHeader {
	h := ReplyHeader{RequestID: 7, Status: ReplyNoException}
	h.ServiceContexts = append(h.ServiceContexts, DepositInfo{
		Arch:  "amd64/little/go",
		Token: 0x1122334455667788,
		Sizes: []uint32{1 << 20},
	}.Encode())
	h.ServiceContexts = append(h.ServiceContexts, TraceContext{
		TraceID: 0xA1A2A3A4A5A6A7A8,
		SpanID:  0xC1C2C3C4C5C6C7C8,
	}.Encode())
	return h
}

// vecDepositInline is the announcement of an inline train: one page
// that follows the message on the control stream.
func vecDepositInline() ServiceContext {
	return DepositInfo{
		Arch:   "amd64/little/go",
		Token:  0x1122334455667788,
		Sizes:  []uint32{4096},
		Inline: true,
	}.Encode()
}

func vecRequestZCInline() RequestHeader {
	return RequestHeader{
		ServiceContexts:  []ServiceContext{vecDepositInline()},
		RequestID:        8,
		ResponseExpected: true,
		ObjectKey:        []byte("store/0"),
		Operation:        "zput",
		Principal:        []byte{},
	}
}

func vecReplyZCInline() ReplyHeader {
	return ReplyHeader{
		ServiceContexts: []ServiceContext{vecDepositInline()},
		RequestID:       8,
		Status:          ReplyNoException,
	}
}

// checkInlineDeposit decodes a fixture's deposit context and asserts
// the inline announcement of vecDepositInline.
func checkInlineDeposit(t *testing.T, scs []ServiceContext) {
	t.Helper()
	di, ok := Find(scs, ZCDepositContextID)
	if !ok {
		t.Fatal("no deposit context")
	}
	dep, err := DecodeDepositInfo(di)
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Inline || dep.Token != 0x1122334455667788 || len(dep.Sizes) != 1 || dep.Sizes[0] != 4096 {
		t.Fatalf("deposit info %+v, want an inline train of one page", dep)
	}
}

// wireVectors enumerates every conformance fixture: name, a builder
// producing the canonical bytes, and a round-trip check that decodes
// the fixture and re-marshals it.
type wireVector struct {
	name      string
	build     func(order cdr.ByteOrder) []byte
	roundTrip func(t *testing.T, order cdr.ByteOrder, msg []byte)
}

// decodeBody parses the fixture's header and hands the body decoder to
// the caller.
func decodeBody(t *testing.T, msg []byte) (Header, *cdr.Decoder) {
	t.Helper()
	hdr, err := DecodeHeader(msg)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	if int(hdr.Size) != len(msg)-HeaderSize {
		t.Fatalf("header size %d, body is %d bytes", hdr.Size, len(msg)-HeaderSize)
	}
	return hdr, cdr.NewDecoder(hdr.Order(), HeaderSize, msg[HeaderSize:])
}

// remarshal re-encodes a header value and asserts byte identity with
// the fixture body.
func remarshal(t *testing.T, order cdr.ByteOrder, body []byte, marshal func(*cdr.Encoder)) {
	t.Helper()
	e := cdr.NewEncoder(order, HeaderSize)
	marshal(e)
	if !bytes.Equal(e.Bytes(), body) {
		t.Fatalf("re-marshal differs from fixture:\n got %x\nwant %x", e.Bytes(), body)
	}
}

func wireVectors() []wireVector {
	return []wireVector{
		{
			name: "request_plain",
			build: func(order cdr.ByteOrder) []byte {
				h := vecRequestPlain()
				return buildMessage(MsgRequest, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				hdr, d := decodeBody(t, msg)
				if hdr.Type != MsgRequest {
					t.Fatalf("type %v", hdr.Type)
				}
				got, err := UnmarshalRequestHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if got.RequestID != 0x01020304 || !got.ResponseExpected ||
					string(got.ObjectKey) != "ttcp-sink" || got.Operation != "put" {
					t.Fatalf("decoded %+v", got)
				}
				if len(got.ServiceContexts) != 0 {
					t.Fatalf("untraced request carries %d service contexts", len(got.ServiceContexts))
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "request_zc",
			build: func(order cdr.ByteOrder) []byte {
				h := vecRequestZC()
				return buildMessage(MsgRequest, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalRequestHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				di, ok := Find(got.ServiceContexts, ZCDepositContextID)
				if !ok {
					t.Fatal("no deposit context")
				}
				dep, err := DecodeDepositInfo(di)
				if err != nil {
					t.Fatal(err)
				}
				if dep.Arch != "amd64/little/go" || dep.Token != 0x1122334455667788 ||
					len(dep.Sizes) != 2 || dep.Sizes[0] != 4096 || dep.Sizes[1] != 65536 {
					t.Fatalf("deposit info %+v", dep)
				}
				tc, ok := FindTraceContext(got.ServiceContexts)
				if !ok {
					t.Fatal("no trace context")
				}
				if tc.TraceID != 0xA1A2A3A4A5A6A7A8 || tc.SpanID != 0xB1B2B3B4B5B6B7B8 {
					t.Fatalf("trace context %+v", tc)
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "reply_plain",
			build: func(order cdr.ByteOrder) []byte {
				h := vecReplyPlain()
				return buildMessage(MsgReply, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalReplyHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if got.RequestID != 0x01020304 || got.Status != ReplyNoException {
					t.Fatalf("decoded %+v", got)
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "reply_zc",
			build: func(order cdr.ByteOrder) []byte {
				h := vecReplyZC()
				return buildMessage(MsgReply, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalReplyHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				tc, ok := FindTraceContext(got.ServiceContexts)
				if !ok || tc.SpanID != 0xC1C2C3C4C5C6C7C8 {
					t.Fatalf("trace context %+v ok=%v", tc, ok)
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "request_zcinline",
			build: func(order cdr.ByteOrder) []byte {
				h := vecRequestZCInline()
				return buildMessage(MsgRequest, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalRequestHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				checkInlineDeposit(t, got.ServiceContexts)
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "reply_zcinline",
			build: func(order cdr.ByteOrder) []byte {
				h := vecReplyZCInline()
				return buildMessage(MsgReply, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalReplyHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				checkInlineDeposit(t, got.ServiceContexts)
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			// A reply whose body is a marshaled object reference carrying
			// the ZC-SHM profile: IIOP endpoint plus the TagZCShm
			// component advertising the shared-memory data plane. The
			// component's inner encapsulation is cdr.NativeOrder (a
			// compile-time constant), so the bytes are machine-stable.
			name: "reply_zcshm_ior",
			build: func(order cdr.ByteOrder) []byte {
				h := ReplyHeader{RequestID: 11, Status: ReplyNoException}
				ref := vecZCShmIOR()
				return buildMessage(MsgReply, order, 0, func(e *cdr.Encoder) {
					h.Marshal(e)
					ref.Marshal(e)
				})
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				rep, err := UnmarshalReplyHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if rep.RequestID != 11 || rep.Status != ReplyNoException {
					t.Fatalf("reply header %+v", rep)
				}
				ref, err := ior.Unmarshal(d)
				if err != nil {
					t.Fatal(err)
				}
				z, ok := ref.ZCShm()
				if !ok {
					t.Fatal("no ZC-SHM component in decoded reference")
				}
				if z.Arch != "amd64/little/go" || z.HostID != "0123456789abcdef0123456789abcdef" ||
					z.Path != "shm:///run/zcorba/data.sock" {
					t.Fatalf("ZC-SHM component %+v", z)
				}
				remarshal(t, order, msg[HeaderSize:], func(e *cdr.Encoder) {
					rep.Marshal(e)
					ref.Marshal(e)
				})
			},
		},
		{
			// A reply carrying an event-channel reference with the
			// ZC-SHM-BCAST profile (TagZCShmBcast): the broadcast-ring
			// attach endpoint co-located subscribers use for zero-copy
			// fan-out. Inner encapsulation is cdr.NativeOrder, so the
			// bytes are machine-stable.
			name: "reply_zcbcast_ior",
			build: func(order cdr.ByteOrder) []byte {
				h := ReplyHeader{RequestID: 12, Status: ReplyNoException}
				ref := vecBcastIOR()
				return buildMessage(MsgReply, order, 0, func(e *cdr.Encoder) {
					h.Marshal(e)
					ref.Marshal(e)
				})
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				rep, err := UnmarshalReplyHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if rep.RequestID != 12 || rep.Status != ReplyNoException {
					t.Fatalf("reply header %+v", rep)
				}
				ref, err := ior.Unmarshal(d)
				if err != nil {
					t.Fatal(err)
				}
				z, ok := ref.ZCShmBcast()
				if !ok {
					t.Fatal("no ZC-SHM-BCAST component in decoded reference")
				}
				if z.Arch != "amd64/little/go" || z.HostID != "0123456789abcdef0123456789abcdef" ||
					z.Path != "bcast:///run/zcorba/events.sock" {
					t.Fatalf("ZC-SHM-BCAST component %+v", z)
				}
				remarshal(t, order, msg[HeaderSize:], func(e *cdr.Encoder) {
					rep.Marshal(e)
					ref.Marshal(e)
				})
			},
		},
		{
			name: "locate_request",
			build: func(order cdr.ByteOrder) []byte {
				h := LocateRequestHeader{RequestID: 9, ObjectKey: []byte("NameService")}
				return buildMessage(MsgLocateRequest, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalLocateRequestHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if got.RequestID != 9 || string(got.ObjectKey) != "NameService" {
					t.Fatalf("decoded %+v", got)
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "locate_reply",
			build: func(order cdr.ByteOrder) []byte {
				h := LocateReplyHeader{RequestID: 9, Status: LocateObjectHere}
				return buildMessage(MsgLocateReply, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalLocateReplyHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if got.RequestID != 9 || got.Status != LocateObjectHere {
					t.Fatalf("decoded %+v", got)
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			name: "cancel_request",
			build: func(order cdr.ByteOrder) []byte {
				h := CancelRequestHeader{RequestID: 0xDEADBEEF}
				return buildMessage(MsgCancelRequest, order, 0, h.Marshal)
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				_, d := decodeBody(t, msg)
				got, err := UnmarshalCancelRequestHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if got.RequestID != 0xDEADBEEF {
					t.Fatalf("decoded %+v", got)
				}
				remarshal(t, order, msg[HeaderSize:], got.Marshal)
			},
		},
		{
			// A fragmented request: the initial Request message carries
			// the MoreFragments flag and the first body chunk; a Fragment
			// message carries the rest. GIOP 1.1 headers, as a GIOP 1.1
			// peer may emit.
			name: "fragment",
			build: func(order cdr.ByteOrder) []byte {
				h := vecRequestPlain()
				e := cdr.NewEncoder(order, HeaderSize)
				h.Marshal(e)
				body := e.Bytes()
				split := len(body) / 2
				var msg []byte
				hdr := make([]byte, HeaderSize)
				EncodeHeader(hdr, Header{
					Major: 1, Minor: 1,
					Flags: orderFlags(order) | FlagMoreFragments,
					Type:  MsgRequest,
					Size:  uint32(split),
				})
				msg = append(msg, hdr...)
				msg = append(msg, body[:split]...)
				EncodeHeader(hdr, Header{
					Major: 1, Minor: 1,
					Flags: orderFlags(order),
					Type:  MsgFragment,
					Size:  uint32(len(body) - split),
				})
				msg = append(msg, hdr...)
				msg = append(msg, body[split:]...)
				return msg
			},
			roundTrip: func(t *testing.T, order cdr.ByteOrder, msg []byte) {
				first, err := DecodeHeader(msg)
				if err != nil {
					t.Fatal(err)
				}
				if !first.MoreFragments() || first.Type != MsgRequest {
					t.Fatalf("initial header %+v", first)
				}
				body := append([]byte(nil), msg[HeaderSize:HeaderSize+int(first.Size)]...)
				rest := msg[HeaderSize+int(first.Size):]
				cont, err := DecodeHeader(rest)
				if err != nil {
					t.Fatal(err)
				}
				if cont.Type != MsgFragment || cont.MoreFragments() {
					t.Fatalf("continuation header %+v", cont)
				}
				body = append(body, rest[HeaderSize:]...)
				d := cdr.NewDecoder(first.Order(), HeaderSize, body)
				got, err := UnmarshalRequestHeader(d)
				if err != nil {
					t.Fatal(err)
				}
				if got.Operation != "put" {
					t.Fatalf("reassembled %+v", got)
				}
				remarshal(t, order, body, got.Marshal)
			},
		},
	}
}

// TestWireVectors asserts encode==fixture and decode(fixture)
// round-trips for every golden vector in both byte orders.
func TestWireVectors(t *testing.T) {
	for _, v := range wireVectors() {
		for _, o := range vecOrders {
			name := fmt.Sprintf("%s_%s", v.name, o.name)
			t.Run(name, func(t *testing.T) {
				path := filepath.Join("testdata", name+".bin")
				got := v.build(o.order)
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run with -update to generate)", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("encoding differs from golden vector %s:\n got %x\nwant %x",
						path, got, want)
				}
				v.roundTrip(t, o.order, want)
			})
		}
	}
}

// TestWireVectorsHandWritten anchors the format to hand-assembled
// bytes, independent of the implementation that generates the golden
// files: if the encoder and a fixture ever drift together, these
// literals still fail.
func TestWireVectorsHandWritten(t *testing.T) {
	// LocateRequest{RequestID: 7, ObjectKey: "k"}, big-endian:
	// magic, version 1.0, flags 0, type 3, size 9;
	// body: id 00000007, key length 00000001, 'k'.
	wantBE := []byte{
		'G', 'I', 'O', 'P', 1, 0, 0x00, 3, 0, 0, 0, 9,
		0, 0, 0, 7,
		0, 0, 0, 1, 'k',
	}
	h := LocateRequestHeader{RequestID: 7, ObjectKey: []byte("k")}
	got := buildMessage(MsgLocateRequest, cdr.BigEndian, 0, h.Marshal)
	if !bytes.Equal(got, wantBE) {
		t.Fatalf("big-endian LocateRequest:\n got %x\nwant %x", got, wantBE)
	}
	// Same message little-endian: flag bit 0 set, multi-byte fields
	// reversed.
	wantLE := []byte{
		'G', 'I', 'O', 'P', 1, 0, 0x01, 3, 9, 0, 0, 0,
		7, 0, 0, 0,
		1, 0, 0, 0, 'k',
	}
	got = buildMessage(MsgLocateRequest, cdr.LittleEndian, 0, h.Marshal)
	if !bytes.Equal(got, wantLE) {
		t.Fatalf("little-endian LocateRequest:\n got %x\nwant %x", got, wantLE)
	}
	// The trace service context is a fixed 16-byte big-endian blob in
	// either message order.
	sc := TraceContext{TraceID: 0x0102030405060708, SpanID: 0x090A0B0C0D0E0F10}.Encode()
	wantTC := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x10}
	if sc.ID != TraceContextID || !bytes.Equal(sc.Data, wantTC) {
		t.Fatalf("trace context encoding: id %#x data %x", sc.ID, sc.Data)
	}
	back, err := DecodeTraceContext(sc.Data)
	if err != nil || back.TraceID != 0x0102030405060708 || back.SpanID != 0x090A0B0C0D0E0F10 {
		t.Fatalf("trace context decode: %+v, %v", back, err)
	}
}

// TestUntracedRequestByteIdentical locks the compatibility guarantee:
// a request carrying no trace context marshals to exactly the same
// bytes as before tracing existed — the trace service context is pure
// addition, never a format change.
func TestUntracedRequestByteIdentical(t *testing.T) {
	h := vecRequestPlain()
	msg := buildMessage(MsgRequest, cdr.LittleEndian, 0, h.Marshal)
	want, err := os.ReadFile(filepath.Join("testdata", "request_plain_le.bin"))
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(msg, want) {
		t.Fatalf("untraced request drifted from the locked wire format:\n got %x\nwant %x",
			msg, want)
	}
	if bytes.Contains(msg, []byte{0x5A, 0x43, 0x00, 0x03}) ||
		bytes.Contains(msg, []byte{0x03, 0x00, 0x43, 0x5A}) {
		t.Fatal("untraced request contains the trace context ID")
	}
}
