package orb

import (
	"testing"

	"zcorba/internal/trace"
	"zcorba/internal/zcbuf"
)

// allocBudget gates the steady-state heap allocation count of one
// zero-copy invoke, client and server sides combined (both ORBs share
// the test process, so testing.Benchmark sees the whole round trip) —
// measured WITH tracing enabled, since observability must not undo the
// allocation-free hot path. The pre-pooling engine measured 70
// allocs/op; the pooled engine measures ~25 untraced, and tracing adds
// a handful (the trace service context rides the request and reply).
// The budget sits at the 50%-reduction line, so a change that
// re-introduces per-request garbage fails loudly while normal jitter
// does not.
const allocBudget = 35

// TestInvokeAllocsGate is the allocation regression gate of the
// allocation-free hot path: see docs/PERF.md for the ownership rules
// that make the budget reachable. Tracing is on for both ORBs: span
// recording into the slab must stay allocation-free.
func TestInvokeAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: instrumentation skews the count")
	}
	p, ct, _ := tracedTCPPair(t, true)
	op := storeIface.Ops["put"]
	buf := zcbuf.Wrap(pattern(4096))
	want := checksum(buf.Bytes())

	// Warm the connection and every pool before measuring.
	for i := 0; i < 64; i++ {
		res, _, err := p.ref.Invoke(op, []any{buf})
		if err != nil {
			t.Fatalf("warmup invoke: %v", err)
		}
		if res.(uint32) != want {
			t.Fatalf("warmup checksum: got %d want %d", res, want)
		}
	}

	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.ref.Invoke(op, []any{buf}); err != nil {
				b.Fatalf("invoke: %v", err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > allocBudget {
		t.Fatalf("steady-state traced ZC invoke allocates %d objects/op, budget %d",
			allocs, allocBudget)
	} else {
		t.Logf("steady-state traced ZC invoke: %d allocs/op, %d B/op (budget %d)",
			allocs, res.AllocedBytesPerOp(), allocBudget)
	}
	// Tracing was actually live during the measurement.
	if ct.SpanCount(trace.KindInvoke) == 0 {
		t.Fatal("alloc gate measured with tracing inert")
	}
}

// gatherAllocBudget gates the steady-state allocation count of one
// 8-segment SendBuffers train (client and server combined, tracing
// on). The per-train ledger (gatherState and its slices) plus the
// per-segment deposit bookkeeping must stay within the same budget as
// a single-buffer invoke: coalescing eight segments may not cost
// per-segment garbage.
const gatherAllocBudget = 35

// TestGatherAllocsGate is the allocation regression gate for the
// scatter/gather deposit path.
func TestGatherAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: instrumentation skews the count")
	}
	p, ct, _ := tracedTCPPair(t, true)
	op := storeIface.Ops["put8"]
	var pl zcbuf.Pool
	bufs := make([]*zcbuf.Buffer, 8)
	var want uint32
	for i := range bufs {
		b, err := pl.Get(4096)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Release()
		for j := range b.Bytes() {
			b.Bytes()[j] = byte(i + j)
		}
		want += checksum(b.Bytes())
		bufs[i] = b
	}

	run := func() error {
		call, err := p.ref.SendBuffers(t.Context(), op, bufs, nil)
		if err != nil {
			return err
		}
		res, _, err := call.Wait()
		if err != nil {
			return err
		}
		if res.(uint32) != want {
			t.Fatalf("checksum: got %v want %d", res, want)
		}
		return nil
	}
	for i := 0; i < 64; i++ {
		if err := run(); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatalf("SendBuffers: %v", err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > gatherAllocBudget {
		t.Fatalf("steady-state 8-segment gather send allocates %d objects/op, budget %d",
			allocs, gatherAllocBudget)
	} else {
		t.Logf("steady-state 8-segment gather send: %d allocs/op, %d B/op (budget %d)",
			allocs, res.AllocedBytesPerOp(), gatherAllocBudget)
	}
	// 32 KiB of train is within inlineDepositMax: it rides the control
	// writev, so its trace is the control_send span that carries it.
	if ct.SpanCount(trace.KindControlSend) == 0 || p.client.Stats().GatherDeposits.Load() == 0 {
		t.Fatal("alloc gate measured without traced gather trains")
	}
}
