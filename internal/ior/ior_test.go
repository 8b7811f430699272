package ior

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"zcorba/internal/cdr"
)

func sampleIOR() IOR {
	dep := ZCDeposit{Arch: "amd64/little/go", Host: "10.0.0.2", Port: 9901}
	return NewIIOP("IDL:test/Store:1.0", "10.0.0.2", 9900,
		[]byte("key-42"), dep.Encode())
}

func TestIIOPProfileRoundTrip(t *testing.T) {
	r := sampleIOR()
	p, ok := r.IIOP()
	if !ok {
		t.Fatal("no IIOP profile")
	}
	if p.Major != 1 || p.Minor != 0 {
		t.Fatalf("version %d.%d", p.Major, p.Minor)
	}
	if p.Host != "10.0.0.2" || p.Port != 9900 {
		t.Fatalf("endpoint %s:%d", p.Host, p.Port)
	}
	if !bytes.Equal(p.ObjectKey, []byte("key-42")) {
		t.Fatalf("object key %q", p.ObjectKey)
	}
	if len(p.Components) != 1 || p.Components[0].Tag != TagZCDeposit {
		t.Fatalf("components %+v", p.Components)
	}
}

func TestZCDepositComponent(t *testing.T) {
	r := sampleIOR()
	z, ok := r.ZCDeposit()
	if !ok {
		t.Fatal("no ZCDeposit component")
	}
	if z.Arch != "amd64/little/go" || z.Host != "10.0.0.2" || z.Port != 9901 {
		t.Fatalf("deposit %+v", z)
	}
	// An IOR without the component reports absence.
	plain := NewIIOP("IDL:test/Store:1.0", "h", 1, []byte("k"))
	if _, ok := plain.ZCDeposit(); ok {
		t.Fatal("unexpected ZCDeposit on plain IOR")
	}
}

func TestMarshalUnmarshalCDR(t *testing.T) {
	r := sampleIOR()
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order, 0)
		r.Marshal(e)
		d := cdr.NewDecoder(order, 0, e.Bytes())
		got, err := Unmarshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if got.TypeID != r.TypeID || len(got.Profiles) != 1 {
			t.Fatalf("got %+v", got)
		}
		p, ok := got.IIOP()
		if !ok || p.Port != 9900 {
			t.Fatalf("profile lost: %+v ok=%v", p, ok)
		}
	}
}

func TestStringifyParseRoundTrip(t *testing.T) {
	r := sampleIOR()
	s := r.String()
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified form %q", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeID != r.TypeID {
		t.Fatalf("type ID %q", got.TypeID)
	}
	z, ok := got.ZCDeposit()
	if !ok || z.Port != 9901 {
		t.Fatalf("deposit lost: %+v ok=%v", z, ok)
	}
}

func TestCorbalocParse(t *testing.T) {
	r, err := Parse("corbaloc::nshost:2809/NameService")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := r.IIOP()
	if !ok {
		t.Fatal("no IIOP profile")
	}
	if p.Host != "nshost" || p.Port != 2809 || string(p.ObjectKey) != "NameService" {
		t.Fatalf("parsed %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"", "junk", "IOR:zz", "IOR:",
		"corbaloc::nohostport", "corbaloc::h:notaport/k", "corbaloc::h:1",
	} {
		if _, err := Parse(s); err == nil {
			t.Fatalf("Parse(%q): want error", s)
		}
	}
}

func TestNilIOR(t *testing.T) {
	var r IOR
	if !r.Nil() {
		t.Fatal("zero IOR must be nil")
	}
	e := cdr.NewEncoder(cdr.BigEndian, 0)
	r.Marshal(e)
	d := cdr.NewDecoder(cdr.BigEndian, 0, e.Bytes())
	got, err := Unmarshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Nil() {
		t.Fatal("round-tripped nil IOR must stay nil")
	}
}

func TestPropertyIIOPRoundTrip(t *testing.T) {
	f := func(host string, port uint16, key []byte) bool {
		if strings.ContainsRune(host, 0) {
			host = "h"
		}
		r := NewIIOP("IDL:x:1.0", host, port, key)
		p, ok := r.IIOP()
		return ok && p.Host == host && p.Port == port && bytes.Equal(p.ObjectKey, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringifyRoundTrip(t *testing.T) {
	f := func(port uint16, key []byte) bool {
		r := NewIIOP("IDL:x:1.0", "host", port, key)
		got, err := Parse(r.String())
		if err != nil {
			return false
		}
		p, ok := got.IIOP()
		return ok && p.Port == port && bytes.Equal(p.ObjectKey, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeIIOPRejectsGarbage(t *testing.T) {
	if _, err := DecodeIIOP(TaggedProfile{Tag: TagInternetIOP, Data: nil}); err == nil {
		t.Fatal("want error for empty profile")
	}
	if _, err := DecodeIIOP(TaggedProfile{Tag: 7, Data: []byte{0}}); err == nil {
		t.Fatal("want error for non-IIOP tag")
	}
	if _, err := DecodeIIOP(TaggedProfile{Tag: TagInternetIOP, Data: []byte{0, 1}}); err == nil {
		t.Fatal("want error for truncated profile")
	}
}

// sampleMultiIOR is a three-endpoint reference. Each profile carries
// a vendor component (tag 0x5A430006) this ORB does not interpret: it
// must survive parsing and re-encoding as an opaque TaggedComponent.
func sampleMultiIOR() IOR {
	prof := func(host string, port uint16, data ...byte) TaggedProfile {
		return IIOPProfile{Major: 1, Host: host, Port: port, ObjectKey: []byte("NameService"),
			Components: []TaggedComponent{{Tag: 0x5A430006, Data: data}}}.Encode()
	}
	return IOR{TypeID: "IDL:zcorba/Naming/Context:1.0", Profiles: []TaggedProfile{
		prof("10.0.0.3", 2811, 1, 0, 1, 0, 1, 0),
		prof("10.0.0.1", 2809, 1, 0, 0, 0, 3, 0),
		prof("10.0.0.2", 2810, 1, 0, 0, 0, 1, 0),
	}}
}

// TestMultiProfileRoundTrip: a multi-profile reference keeps every
// profile through stringification, IIOP() yields the first one, and
// the unknown component rides along untouched.
func TestMultiProfileRoundTrip(t *testing.T) {
	r := sampleMultiIOR()
	got, err := Parse(r.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Profiles) != 3 {
		t.Fatalf("profiles lost after stringify: %d", len(got.Profiles))
	}
	p, ok := got.IIOP()
	if !ok || p.Host != "10.0.0.3" || p.Port != 2811 {
		t.Fatalf("IIOP() = %+v ok=%v, want the first profile", p, ok)
	}
	data, ok := p.Component(0x5A430006)
	if !ok || !bytes.Equal(data, []byte{1, 0, 1, 0, 1, 0}) {
		t.Fatalf("opaque component lost: %x ok=%v", data, ok)
	}
}

func TestDecodeZCDepositRejectsGarbage(t *testing.T) {
	if _, err := DecodeZCDeposit(nil); err == nil {
		t.Fatal("want error for empty component")
	}
	if _, err := DecodeZCDeposit([]byte{0, 1, 2}); err == nil {
		t.Fatal("want error for truncated component")
	}
}
