package ior

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zcorba/internal/cdr"
)

// The IOR wire-vector suite locks the CDR byte format of multi-profile
// references against canonical fixtures under
// testdata/, in both byte orders — the same contract the GIOP
// conformance suite enforces for message headers. Component
// encapsulations are always cdr.NativeOrder (a compile-time constant),
// so the fixtures are identical on every machine. Regenerate
// deliberately with
//
//	go test ./internal/ior -run TestIORWireVectors -update
//
// after which `git diff internal/ior/testdata` is the wire-format
// change under review.
var update = flag.Bool("update", false, "rewrite the golden IOR wire vectors")

var iorVectors = []struct {
	name string
	ref  func() IOR
}{
	{"multiprofile", sampleMultiIOR},
}

var iorVecOrders = []struct {
	name  string
	order cdr.ByteOrder
}{
	{"be", cdr.BigEndian},
	{"le", cdr.LittleEndian},
}

// marshalIOR renders the reference in its standard CDR form under the
// given outer byte order.
func marshalIOR(r IOR, order cdr.ByteOrder) []byte {
	e := cdr.NewEncoder(order, 0)
	r.Marshal(e)
	return e.Bytes()
}

func TestIORWireVectors(t *testing.T) {
	for _, vec := range iorVectors {
		for _, ord := range iorVecOrders {
			name := fmt.Sprintf("%s_%s", vec.name, ord.name)
			t.Run(name, func(t *testing.T) {
				got := marshalIOR(vec.ref(), ord.order)
				path := filepath.Join("testdata", name+".bin")
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden vector (run with -update): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("wire bytes diverged from %s:\n got %x\nwant %x", path, got, want)
				}
				// The fixture must decode back to the same reference, and
				// IIOP() must pick its first profile.
				d := cdr.NewDecoder(ord.order, 0, want)
				back, err := Unmarshal(d)
				if err != nil {
					t.Fatalf("golden vector does not decode: %v", err)
				}
				ref := vec.ref()
				if back.TypeID != ref.TypeID || len(back.Profiles) != len(ref.Profiles) {
					t.Fatalf("decoded reference diverged: %+v", back)
				}
				first, err := DecodeIIOP(ref.Profiles[0])
				if err != nil {
					t.Fatal(err)
				}
				if p, ok := back.IIOP(); !ok || p.Host != first.Host || p.Port != first.Port {
					t.Fatalf("IIOP() = %+v ok=%v, want profile 0 %s:%d", p, ok, first.Host, first.Port)
				}
				if !bytes.Equal(marshalIOR(back, ord.order), want) {
					t.Fatal("decoded vector does not re-encode byte-identically")
				}
			})
		}
	}
}
