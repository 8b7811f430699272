package ior

import (
	"strings"
	"testing"

	"zcorba/internal/cdr"
)

// FuzzIORParse goes beyond FuzzParse's no-panic check: any stringified
// reference that parses must satisfy the structural invariants the ORB
// relies on — a usable IIOP endpoint implies decodable host and key, a
// ZCDeposit component round-trips through its encapsulation, and the
// reference survives CDR marshal/unmarshal in both byte orders.
func FuzzIORParse(f *testing.F) {
	f.Add(sampleIOR().String())
	f.Add(sampleShmIOR().String())
	f.Add(sampleBcastIOR().String())
	f.Add(sampleMultiIOR().String())
	f.Add(NewIIOP("IDL:test/Store:1.0", "h", 1, []byte("k"),
		TaggedComponent{Tag: 0x5A430006, Data: []byte{1, 0, 1, 0, 1, 0}}).String())
	f.Add(NewIIOP("IDL:test/Store:1.0", "h", 1, []byte("k")).String())
	f.Add("corbaloc::host:2809/NameService")
	f.Add("corbaloc::1.2@host:2809/key")
	f.Add("IOR:")
	f.Add("IOR:0000")
	f.Add("IOR:zz")
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := Parse(s)
		if err != nil {
			return
		}
		if p, ok := ref.IIOP(); ok {
			if strings.ContainsAny(p.Host, "\x00") {
				t.Fatalf("IIOP host with NUL parsed from %q", s)
			}
			// Re-encoding an accepted profile must itself decode.
			if _, err := DecodeIIOP(p.Encode()); err != nil {
				t.Fatalf("re-encoded IIOP profile rejected: %v", err)
			}
		}
		if z, ok := ref.ZCDeposit(); ok {
			back, err := DecodeZCDeposit(z.Encode().Data)
			if err != nil || back != z {
				t.Fatalf("ZCDeposit round trip: %+v -> %+v, %v", z, back, err)
			}
		}
		if z, ok := ref.ZCShm(); ok {
			// Anything the accessor exposes passed the hostile-name
			// checks and must round-trip through its encapsulation.
			for _, v := range []string{z.Arch, z.HostID, z.Path} {
				if strings.ContainsRune(v, 0) || len(v) > maxShmName {
					t.Fatalf("hostile ZCShm field survived validation: %q", v)
				}
			}
			back, err := DecodeZCShm(z.Encode().Data)
			if err != nil || back != z {
				t.Fatalf("ZCShm round trip: %+v -> %+v, %v", z, back, err)
			}
		}
		if z, ok := ref.ZCShmBcast(); ok {
			for _, v := range []string{z.Arch, z.HostID, z.Path} {
				if strings.ContainsRune(v, 0) || len(v) > maxShmName {
					t.Fatalf("hostile ZCShmBcast field survived validation: %q", v)
				}
			}
			back, err := DecodeZCShmBcast(z.Encode().Data)
			if err != nil || back != z {
				t.Fatalf("ZCShmBcast round trip: %+v -> %+v, %v", z, back, err)
			}
		}
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			e := cdr.NewEncoder(order, 0)
			ref.Marshal(e)
			d := cdr.NewDecoder(order, 0, e.Bytes())
			got, err := Unmarshal(d)
			if err != nil {
				t.Fatalf("CDR round trip decode: %v", err)
			}
			if got.TypeID != ref.TypeID || len(got.Profiles) != len(ref.Profiles) {
				t.Fatalf("CDR round trip changed the reference:\n got %+v\nwant %+v", got, ref)
			}
		}
	})
}
