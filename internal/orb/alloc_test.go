package orb

import (
	"io"
	"testing"

	"zcorba/internal/trace"
	"zcorba/internal/transport"
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

// stdPutAllocBudget gates the steady-state allocation count of one
// standard 1 MiB put_std round trip on tcp, client and server
// combined. The request encoder, the request body and the in-argument
// all reuse pooled storage, and the argument is written to the encoder
// without re-boxing; measured 3 allocs/op on either server tier, and
// the budget is that plus 1.
const stdPutAllocBudget = 4

// TestStdPutAllocsGate: the standard path still makes its two copies
// of a 1 MiB block (marshal and demarshal), but into warm memory, on
// both server tiers: bytes allocated per call stay far below one block.
func TestStdPutAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: instrumentation skews the count")
	}
	for _, engine := range []bool{false, true} {
		t.Run(map[bool]string{false: "legacy", true: "engine"}[engine], func(t *testing.T) {
			p := newPair(t, Options{Transport: &transport.TCP{}, Engine: engine},
				Options{Transport: &transport.TCP{}})
			op := storeIface.Ops["put_std"]
			data := pattern(1 << 20)
			want := checksum(data)
			args := []any{data}
			run := func() error {
				res, _, err := p.ref.Invoke(op, args)
				if err != nil {
					return err
				}
				if res.(uint32) != want {
					t.Fatalf("checksum: got %v want %d", res, want)
				}
				return nil
			}
			for i := 0; i < 16; i++ {
				if err := run(); err != nil {
					t.Fatalf("warmup: %v", err)
				}
			}
			copies := p.server.Stats().PayloadCopies.Load()
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatalf("put_std: %v", err)
					}
				}
			})
			if p.server.Stats().PayloadCopies.Load() == copies {
				t.Fatal("gate measured no demarshal copies: not the standard path")
			}
			allocs, bytes := res.AllocsPerOp(), res.AllocedBytesPerOp()
			if bytes > int64(len(data)/16) {
				t.Fatalf("standard 1 MiB put allocates %d B/op: a fresh block per call", bytes)
			}
			if allocs > stdPutAllocBudget {
				t.Fatalf("standard 1 MiB put allocates %d objects/op, budget %d", allocs, stdPutAllocBudget)
			}
			t.Logf("standard 1 MiB put: %d allocs/op, %d B/op (budget %d)", allocs, bytes, stdPutAllocBudget)
		})
	}
}

// nopConn is a control stream that only closes.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)             { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)          { return len(p), nil }
func (nopConn) Close() error                         { return nil }
func (nopConn) WriteGather(...[]byte) (int64, error) { return 0, nil }
func (nopConn) ReadScatter(...[]byte) (int, error)   { return 0, io.EOF }
func (nopConn) LocalAddr() string                    { return "nop" }
func (nopConn) RemoteAddr() string                   { return "nop" }

// TestServerConnNoReplyTables: replies never arrive on a server
// connection, so it makes no reply table, and a client's costs one
// array. close fails each waiter with a nil delivery, so it allocates
// nothing per waiter, and a closed connection takes no new waiter.
func TestServerConnNoReplyTables(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("alloc count skipped under -race: instrumentation skews the count")
	}
	o := &ORB{}
	count := func(isServer bool) float64 {
		return testing.AllocsPerRun(100, func() { newConn(o, nopConn{}, isServer).close(nil) })
	}
	srv, cli := count(true), count(false)
	// What is left on a server connection: the conn itself, its two
	// expiry hooks and the close error.
	if srv > 4 {
		t.Fatalf("server newConn+close allocates %v objects, want at most 4", srv)
	}
	if cli > srv+2 {
		t.Fatalf("client newConn+close allocates %v objects against the server's %v, want at most 2 more", cli, srv)
	}
	// close alone, on connections prepared outside the count (one per
	// run of AllocsPerRun, plus its warm-up).
	closeAllocs := func(waiters int) float64 {
		conns := make([]*conn, 101)
		for i := range conns {
			conns[i] = newConn(o, nopConn{}, false)
			for j := 0; j < waiters; j++ {
				if _, _, err := conns[i].take(slotRequest); err != nil {
					t.Fatal(err)
				}
			}
		}
		i := 0
		return testing.AllocsPerRun(100, func() { conns[i].close(nil); i++ })
	}
	idle, busy := closeAllocs(0), closeAllocs(8)
	if busy > idle {
		t.Fatalf("close with 8 waiters allocates %v objects, with none %v", busy, idle)
	}
	c := newConn(o, nopConn{}, false)
	c.close(nil)
	if _, _, err := c.take(slotRequest); err == nil {
		t.Fatal("take on a closed connection succeeded")
	}
	t.Logf("newConn+close: server %v allocs, client %v; close with 8 waiters %v, with none %v",
		srv, cli, busy, idle)
}
