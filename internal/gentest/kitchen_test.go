// Package gentest is the IDL-compiler coverage fixture: kitchen.idl
// exercises every supported construct, and these tests drive the
// generated stubs and skeletons end to end over the ORB.
package gentest

import (
	"bytes"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"zcorba/internal/idl"
	"zcorba/internal/ior"
	"zcorba/internal/orb"
	"zcorba/internal/transport"
	"zcorba/internal/typecode"
	"zcorba/internal/zcbuf"
)

// oven implements the full inherited handler interface.
type oven struct {
	mode     Kitchen_Inner_Heat
	fallback Kitchen_Inner_Heat
	pokes    atomic.Int64
	watched  atomic.Int64
	target   float64
}

var _ Kitchen_OvenHandler = (*oven)(nil)

func (o *oven) GetSerial() (string, error) { return Kitchen_MODEL + "-17", nil }

func (o *oven) GetMode() (Kitchen_Inner_Heat, error) { return o.mode, nil }
func (o *oven) SetMode(v Kitchen_Inner_Heat) error   { o.mode = v; return nil }
func (o *oven) GetFallback_mode() (Kitchen_Inner_Heat, error) {
	return o.fallback, nil
}
func (o *oven) SetFallback_mode(v Kitchen_Inner_Heat) error { o.fallback = v; return nil }

func (o *oven) Knobs() (Kitchen_Panel, error) {
	return Kitchen_Panel{
		{Name: "top", Level: Kitchen_Inner_HIGH, Detents: []int32{1, 2, 3}},
		{Name: "bottom", Level: Kitchen_Inner_OFF, Detents: []int32{0, 0, 0}},
	}, nil
}

func (o *oven) Calibrate(panel Kitchen_Panel) (int32, error) {
	if len(panel) > int(Kitchen_MAX_KNOBS) {
		return 0, &Kitchen_Overheat{Celsius: 451}
	}
	for _, k := range panel {
		if k.Name == "shorted" {
			return 0, &Kitchen_PowerLoss{Circuit: "B7", Code: 13}
		}
	}
	return int32(len(panel)), nil
}

func (o *oven) Label_all(names Kitchen_Labels) (Kitchen_Labels, error) {
	out := make(Kitchen_Labels, len(names))
	for i, n := range names {
		out[i] = n + "!"
	}
	return out, nil
}

func (o *oven) Status(key string) (typecode.AnyValue, error) {
	switch key {
	case "temp":
		return typecode.AnyValue{Type: typecode.TCDouble, Value: 180.5}, nil
	default:
		return typecode.AnyValue{Type: typecode.TCString, Value: "unknown key " + key}, nil
	}
}

func (o *oven) Watch(observer ior.IOR) error {
	if observer.Nil() {
		return &orb.SystemException{Name: "BAD_PARAM"}
	}
	o.watched.Add(1)
	return nil
}

func (o *oven) Poke(code byte) error { o.pokes.Add(1); return nil }

func (o *oven) Dump(n uint32) (*zcbuf.Buffer, error) {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i * 3)
	}
	return zcbuf.Wrap(out), nil
}

func (o *oven) Snapshot() ([]byte, error) { return []byte{0xCA, 0xFE}, nil }

func (o *oven) Preheat(celsius float64) error {
	if celsius > 300 {
		return &Kitchen_Overheat{Celsius: celsius}
	}
	o.target = celsius
	return nil
}

func startOven(t *testing.T) (Kitchen_OvenStub, *oven, *orb.ORB, *orb.ORB) {
	t.Helper()
	server, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	impl := &oven{}
	ref, err := server.Activate("oven", Kitchen_OvenSkeleton{Impl: impl})
	if err != nil {
		t.Fatal(err)
	}
	client, err := orb.New(orb.Options{Transport: &transport.TCP{}, ZeroCopy: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	return Kitchen_OvenStub{Ref: cref}, impl, client, server
}

func TestConstants(t *testing.T) {
	if Kitchen_MAX_KNOBS != 12 || Kitchen_MODEL != "ZK-9000" || !Kitchen_EXPORT_GRADE {
		t.Fatal("constants wrong")
	}
	if Kitchen_Inner_OFF != 0 || Kitchen_Inner_LOW != 1 || Kitchen_Inner_HIGH != 2 {
		t.Fatal("enum values wrong")
	}
}

func TestStructsWithArraysAndEnums(t *testing.T) {
	stub, _, _, _ := startOven(t)
	knobs, err := stub.Knobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(knobs) != 2 || knobs[0].Name != "top" || knobs[0].Level != Kitchen_Inner_HIGH {
		t.Fatalf("knobs %+v", knobs)
	}
	if len(knobs[0].Detents) != 3 || knobs[0].Detents[2] != 3 {
		t.Fatalf("detents %v", knobs[0].Detents)
	}
}

func TestSeqOfStructParamAndOut(t *testing.T) {
	stub, _, _, _ := startOven(t)
	adjusted, err := stub.Calibrate([]Kitchen_Inner_Knob{
		{Name: "a", Level: Kitchen_Inner_LOW, Detents: []int32{1, 1, 1}},
		{Name: "b", Level: Kitchen_Inner_OFF, Detents: []int32{2, 2, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if adjusted != 2 {
		t.Fatalf("adjusted=%d", adjusted)
	}
}

func TestMultipleExceptions(t *testing.T) {
	stub, _, _, _ := startOven(t)
	big := make([]Kitchen_Inner_Knob, 20)
	for i := range big {
		big[i] = Kitchen_Inner_Knob{Name: "k", Detents: []int32{0, 0, 0}}
	}
	_, err := stub.Calibrate(big)
	var oh *Kitchen_Overheat
	if !errors.As(err, &oh) || oh.Celsius != 451 {
		t.Fatalf("want Overheat, got %v", err)
	}
	_, err = stub.Calibrate([]Kitchen_Inner_Knob{{Name: "shorted", Detents: []int32{0, 0, 0}}})
	var pl *Kitchen_PowerLoss
	if !errors.As(err, &pl) || pl.Circuit != "B7" || pl.Code != 13 {
		t.Fatalf("want PowerLoss, got %v", err)
	}
	// Inherited op raising the inherited exception.
	err = stub.Preheat(500)
	if !errors.As(err, &oh) || oh.Celsius != 500 {
		t.Fatalf("want Overheat from Preheat, got %v", err)
	}
	if err := stub.Preheat(180); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedStringSequence(t *testing.T) {
	stub, _, _, _ := startOven(t)
	got, err := stub.Label_all([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a!" || got[1] != "b!" {
		t.Fatalf("labels %v", got)
	}
	// Exceeding the bound of sequence<string,4> is a marshal error.
	if _, err := stub.Label_all([]string{"1", "2", "3", "4", "5"}); err == nil {
		t.Fatal("want bound violation")
	}
}

func TestAnyResult(t *testing.T) {
	stub, _, _, _ := startOven(t)
	av, err := stub.Status("temp")
	if err != nil {
		t.Fatal(err)
	}
	if av.Type.Kind() != typecode.Double || av.Value.(float64) != 180.5 {
		t.Fatalf("status %+v", av)
	}
	av, err = stub.Status("other")
	if err != nil {
		t.Fatal(err)
	}
	if av.Type.Kind() != typecode.String {
		t.Fatalf("status %+v", av)
	}
}

func TestObjectRefParam(t *testing.T) {
	stub, impl, client, _ := startOven(t)
	// Any object reference will do; use the oven's own.
	if err := stub.Watch(stub.Ref.IOR()); err != nil {
		t.Fatal(err)
	}
	if impl.watched.Load() != 1 {
		t.Fatal("watch not recorded")
	}
	_ = client
	if err := stub.Watch(ior.IOR{}); err == nil {
		t.Fatal("nil observer must be rejected")
	}
}

func TestOnewayOctetParam(t *testing.T) {
	stub, impl, _, _ := startOven(t)
	if err := stub.Poke(0x7F); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return impl.pokes.Load() == 1 })
}

func TestZCDumpAndPlainSnapshot(t *testing.T) {
	stub, _, client, server := startOven(t)
	buf, err := stub.Dump(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	if buf.Len() != 1<<20 || buf.Bytes()[5] != 15 {
		t.Fatalf("dump len=%d", buf.Len())
	}
	if n := client.Stats().PayloadCopyBytes.Load() + server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("ZC dump copied %d bytes", n)
	}
	snap, err := stub.Snapshot()
	if err != nil || !bytes.Equal(snap, []byte{0xCA, 0xFE}) {
		t.Fatalf("snapshot %x %v", snap, err)
	}
}

func TestAttributesInclMultiDeclarator(t *testing.T) {
	stub, _, _, _ := startOven(t)
	serial, err := stub.GetSerial()
	if err != nil || serial != "ZK-9000-17" {
		t.Fatalf("serial %q %v", serial, err)
	}
	if err := stub.SetMode(Kitchen_Inner_HIGH); err != nil {
		t.Fatal(err)
	}
	if err := stub.SetFallback_mode(Kitchen_Inner_LOW); err != nil {
		t.Fatal(err)
	}
	m, err := stub.GetMode()
	if err != nil || m != Kitchen_Inner_HIGH {
		t.Fatalf("mode %v %v", m, err)
	}
	fb, err := stub.GetFallback_mode()
	if err != nil || fb != Kitchen_Inner_LOW {
		t.Fatalf("fallback %v %v", fb, err)
	}
}

func TestInheritedOpsOnOvenStub(t *testing.T) {
	stub, _, _, _ := startOven(t)
	// Appliance ops must be present on the Oven contract too.
	if Kitchen_OvenIface.Ops["knobs"] == nil || Kitchen_OvenIface.Ops["preheat"] == nil {
		t.Fatal("inheritance lost ops")
	}
	ok, err := stub.Ref.IsA("IDL:zcorba.gentest/Kitchen/Oven:1.0")
	if err != nil || !ok {
		t.Fatalf("IsA Oven: %v %v", ok, err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGeneratedFileIsCurrent is the golden check for kitchen_gen.go.
func TestGeneratedFileIsCurrent(t *testing.T) {
	src, err := os.ReadFile("kitchen.idl")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := idl.Parse("internal/gentest/kitchen.idl", string(src))
	if err != nil {
		t.Fatal(err)
	}
	code, err := idl.Generate(spec, idl.GenOptions{Package: "gentest"})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("kitchen_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stripWS(code), stripWS(committed)) {
		t.Fatal("kitchen_gen.go is stale; rerun: make generate")
	}
}

func stripWS(b []byte) []byte {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			out = append(out, c)
		}
	}
	return out
}
