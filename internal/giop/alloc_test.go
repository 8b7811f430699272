package giop

import (
	"bytes"
	"reflect"
	"testing"

	"zcorba/internal/cdr"
)

// The receive path decodes every request header and deposit
// announcement into storage that is reused from message to message:
// these pins hold both at zero allocations.

func TestDepositInfoReuseAllocs(t *testing.T) {
	di := DepositInfo{Arch: "amd64/little/go", Token: 0xDEADBEEF01, Sizes: []uint32{4096, 65536}, Inline: true}
	var buf [64]byte
	var back DepositInfo
	allocs := testing.AllocsPerRun(100, func() {
		sc := di.EncodeTo(buf[:0])
		if err := back.Decode(sc.Data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("deposit info encode into caller storage + decode into a reused value: %v allocs, want 0", allocs)
	}
	if !reflect.DeepEqual(back, di) {
		t.Fatalf("decoded %+v, want %+v", back, di)
	}
	if got, want := di.EncodeTo(buf[:0]).Data, di.Encode().Data; !reflect.DeepEqual(got, want) {
		t.Fatalf("EncodeTo wrote %x, Encode %x", got, want)
	}
}

func TestRequestHeaderReuseAllocs(t *testing.T) {
	req := RequestHeader{
		ServiceContexts: []ServiceContext{
			DepositInfo{Arch: "amd64/little/go", Token: 9, Sizes: []uint32{4096}, Inline: true}.Encode(),
			TraceContext{TraceID: 1, SpanID: 2}.Encode(),
		},
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("store/0"),
		Operation:        "zput",
		Principal:        []byte{},
	}
	e := cdr.NewEncoder(cdr.NativeOrder, HeaderSize)
	req.Marshal(e)
	body := e.Bytes()
	intern := func(key, op []byte) (string, bool) {
		if string(op) == req.Operation {
			return req.Operation, true
		}
		return "", false
	}
	var d cdr.Decoder
	var h RequestHeader
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset(cdr.NativeOrder, HeaderSize, body)
		if err := h.Unmarshal(&d, intern); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("request header unmarshal into a reused header: %v allocs, want 0", allocs)
	}
	if !reflect.DeepEqual(h, req) {
		t.Fatalf("decoded %+v, want %+v", h, req)
	}
	// The byte fields are views of the body, not copies.
	body[bytes.Index(body, req.ObjectKey)] = 'S'
	if string(h.ObjectKey) != "Store/0" {
		t.Fatalf("object key %q is not a view of the body", h.ObjectKey)
	}
}
