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
// allocation-free hot path. It is shared by the tcp, engine-tier and
// shm gates, which measure 2, 2 and 3 allocs/op. What is left: the
// uint32 result boxed on each side and the shm reader's record state
// (shm only). The budget is the largest count plus 2 (docs/PERF.md has
// the per-site ledger).
const allocBudget = 5

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
// 8-segment train (client and server combined, tracing on): an
// InvokeAsync with eight ZC arguments in a reused []any. The
// per-segment deposit bookkeeping must stay within the same budget as
// a single-buffer invoke: coalescing eight segments may not cost
// per-segment garbage. Measured 6 allocs/op; the budget is that plus 2.
const gatherAllocBudget = 8

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
	args := make([]any, 8)
	var want uint32
	for i := range args {
		b, err := pl.Get(4096)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Release()
		for j := range b.Bytes() {
			b.Bytes()[j] = byte(i + j)
		}
		want += checksum(b.Bytes())
		args[i] = b
	}

	run := func() error {
		res, _, err := p.ref.InvokeAsync(op, args).Wait()
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
				b.Fatalf("train: %v", err)
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
	// The train rides the control writev, so its trace is the
	// control_send span that carries it.
	if ct.SpanCount(trace.KindControlSend) == 0 || p.client.Stats().GatherDeposits.Load() == 0 {
		t.Fatal("alloc gate measured without traced gather trains")
	}
}
