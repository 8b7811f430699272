package gentest

import (
	"testing"

	"zcorba/internal/cdr"
	"zcorba/internal/typecode"
)

// benchFrame mirrors the interpreter benchmark value in
// internal/typecode/bench_test.go (BenchmarkStructMarshal) so the two
// suites measure the same wire bytes.
func benchFrame() Kitchen_Frame {
	return Kitchen_Frame{Seq: 1, Name: "frame", Data: []byte{1, 2, 3, 4}}
}

func benchTelemetry() Kitchen_Telemetry {
	samples := make([]float64, 512)
	counts := make([]int32, 256)
	for i := range samples {
		samples[i] = float64(i) * 0.5
	}
	for i := range counts {
		counts[i] = int32(i - 100)
	}
	return Kitchen_Telemetry{
		Stamp:   1234567890,
		Samples: samples,
		Counts:  counts,
		Blob:    make([]byte, 1024),
		Tag:     "bench",
	}
}

func BenchmarkGeneratedStructMarshal(b *testing.B) {
	v := benchFrame()
	e := cdr.GetEncoder(cdr.NativeOrder, 0)
	defer cdr.PutEncoder(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset(cdr.NativeOrder, 0)
		if err := v.MarshalCDR(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterStructMarshal is the typecode-walk baseline on
// the same value and the same pooled encoder, so the delta is purely
// interpretation overhead (boxing, kind switches, per-element loops).
func BenchmarkInterpreterStructMarshal(b *testing.B) {
	v := kitchen_Frame_toAny(benchFrame())
	e := cdr.GetEncoder(cdr.NativeOrder, 0)
	defer cdr.PutEncoder(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset(cdr.NativeOrder, 0)
		if err := typecode.MarshalValue(e, tcKitchen_Frame, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneratedStructDemarshal(b *testing.B) {
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := benchFrame().MarshalCDR(e); err != nil {
		b.Fatal(err)
	}
	raw := e.Bytes()
	d := cdr.GetDecoder(cdr.NativeOrder, 0, raw)
	defer cdr.PutDecoder(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset(cdr.NativeOrder, 0, raw)
		var out Kitchen_Frame
		if err := out.UnmarshalCDR(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterStructDemarshal(b *testing.B) {
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := benchFrame().MarshalCDR(e); err != nil {
		b.Fatal(err)
	}
	raw := e.Bytes()
	d := cdr.GetDecoder(cdr.NativeOrder, 0, raw)
	defer cdr.PutDecoder(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset(cdr.NativeOrder, 0, raw)
		if _, err := typecode.UnmarshalValue(d, tcKitchen_Frame); err != nil {
			b.Fatal(err)
		}
	}
}

// Telemetry is dominated by homogeneous primitive runs, so these two
// benchmarks isolate the bulk fast path (block transfer vs per-element
// align/swap loop). SetBytes reports wire throughput.
func telemetryWireLen(v Kitchen_Telemetry) int64 {
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := v.MarshalCDR(e); err != nil {
		panic(err)
	}
	return int64(e.Len())
}

func BenchmarkGeneratedBulkMarshal(b *testing.B) {
	v := benchTelemetry()
	e := cdr.GetEncoder(cdr.NativeOrder, 0)
	defer cdr.PutEncoder(e)
	b.SetBytes(telemetryWireLen(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(cdr.NativeOrder, 0)
		if err := v.MarshalCDR(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterBulkMarshal(b *testing.B) {
	v := benchTelemetry()
	av := kitchen_Telemetry_toAny(v)
	e := cdr.GetEncoder(cdr.NativeOrder, 0)
	defer cdr.PutEncoder(e)
	b.SetBytes(telemetryWireLen(v))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(cdr.NativeOrder, 0)
		if err := typecode.MarshalValue(e, tcKitchen_Telemetry, av); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneratedBulkDemarshal(b *testing.B) {
	v := benchTelemetry()
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := v.MarshalCDR(e); err != nil {
		b.Fatal(err)
	}
	raw := e.Bytes()
	d := cdr.GetDecoder(cdr.NativeOrder, 0, raw)
	defer cdr.PutDecoder(d)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset(cdr.NativeOrder, 0, raw)
		var out Kitchen_Telemetry
		if err := out.UnmarshalCDR(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterBulkDemarshal(b *testing.B) {
	v := benchTelemetry()
	e := cdr.NewEncoder(cdr.NativeOrder, 0)
	if err := v.MarshalCDR(e); err != nil {
		b.Fatal(err)
	}
	raw := e.Bytes()
	d := cdr.GetDecoder(cdr.NativeOrder, 0, raw)
	defer cdr.PutDecoder(d)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset(cdr.NativeOrder, 0, raw)
		if _, err := typecode.UnmarshalValue(d, tcKitchen_Telemetry); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGeneratedMarshalZeroAllocs is the allocation gate: on the pooled
// encoder, generated marshaling must not allocate at steady state.
func TestGeneratedMarshalZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: sync.Pool drops Puts at random")
	}
	fr := benchFrame()
	tel := benchTelemetry()
	// Warm the pool so buffer growth is not charged to the gate.
	for i := 0; i < 4; i++ {
		e := cdr.GetEncoder(cdr.NativeOrder, 0)
		_ = fr.MarshalCDR(e)
		_ = tel.MarshalCDR(e)
		cdr.PutEncoder(e)
	}
	if n := testing.AllocsPerRun(200, func() {
		e := cdr.GetEncoder(cdr.NativeOrder, 0)
		if err := fr.MarshalCDR(e); err != nil {
			t.Fatal(err)
		}
		if err := tel.MarshalCDR(e); err != nil {
			t.Fatal(err)
		}
		cdr.PutEncoder(e)
	}); n != 0 {
		t.Fatalf("generated marshal allocates %.1f times per op, want 0", n)
	}
}
