//go:build linux

package orb

import (
	"bytes"
	"testing"
	"time"

	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// kzcPair starts a server whose data plane is the kernel zero-copy
// transport (control stays TCP) and a client dialing it through the
// given KZC instance — the instance carries the fault injector and the
// negotiated threshold, mirroring shmPair.
func kzcPair(t *testing.T, kzcTr *transport.KZC, clientExtra func(*Options)) *pair {
	t.Helper()
	copts := Options{ZeroCopy: true, DataTransport: kzcTr}
	if clientExtra != nil {
		clientExtra(&copts)
	}
	return newPair(t,
		Options{ZeroCopy: true, DataListenAddr: "kzc://127.0.0.1:0"},
		copts)
}

// TestKzcDepositEndToEnd: a request deposit above the negotiated
// threshold travels via MSG_ZEROCOPY — counted as a kzc deposit, zero
// payload copies, and the buffer lease settles when the kernel's
// completion arrives.
func TestKzcDepositEndToEnd(t *testing.T) {
	p := kzcPair(t, &transport.KZC{Threshold: 4096}, nil)
	buf := zcbuf.Wrap(pattern(64 << 10))
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{buf})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.(uint32) != checksum(buf.Bytes()) {
		t.Fatal("checksum mismatch")
	}
	st := p.client.Stats()
	if n := st.KzcDeposits.Load(); n != 1 {
		t.Fatalf("KzcDeposits=%d, want 1", n)
	}
	if n := st.KzcDepositBytes.Load(); n != 64<<10 {
		t.Fatalf("KzcDepositBytes=%d", n)
	}
	if n := st.PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("client copied %d payload bytes on the kzc path", n)
	}
	// Release is completion-gated: the lease settles only once the
	// kernel reports the pages free (copied on loopback, still settled).
	waitFor(t, "zero-copy completion", func() bool {
		return st.KzcCompletions.Load() >= 1 && p.client.leases.Pending() == 0
	})
	if n := st.KzcCopiedCompletions.Load(); n < 1 {
		t.Fatalf("KzcCopiedCompletions=%d, want >=1 on loopback", n)
	}
}

// TestKzcReplyPath: reply deposits ride the same channel backwards —
// the acceptor side negotiated the threshold from the promotion header
// and enabled SO_ZEROCOPY for its own sends.
func TestKzcReplyPath(t *testing.T) {
	p := kzcPair(t, &transport.KZC{Threshold: 4096}, nil)
	data := pattern(256 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["echo"], []any{zcbuf.Wrap(data)})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	buf := res.(*zcbuf.Buffer)
	if !bytes.Equal(buf.Bytes(), data) {
		buf.Release()
		t.Fatal("echo corrupted payload")
	}
	buf.Release()
	// The server bumps its counters after the reply's bytes have left,
	// which is after this call may already have completed.
	waitFor(t, "server-side deposit accounting", func() bool {
		return p.server.Stats().KzcDeposits.Load() >= 1
	})
	if n := p.server.Stats().KzcDeposits.Load(); n != 1 {
		t.Fatalf("server KzcDeposits=%d, want 1", n)
	}
	waitFor(t, "server-side completion", func() bool {
		return p.server.Stats().KzcCompletions.Load() >= 1 &&
			p.server.leases.Pending() == 0
	})
}

// TestKzcFileDeposit: a *zcbuf.File reply goes disk→wire with sendfile
// on the kzc data plane — the filetransfer scenario, asserted.
func TestKzcFileDeposit(t *testing.T) {
	body := pattern(1 << 20)
	server, ref := newFileServer(t, Options{
		ZeroCopy:       true,
		DataListenAddr: "kzc://127.0.0.1:0",
	}, body)
	client, err := New(Options{ZeroCopy: true})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	res, _, err := cref.Invoke(kzcFileIface.Ops["read"], nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	buf := res.(*zcbuf.Buffer)
	defer buf.Release()
	if !bytes.Equal(buf.Bytes(), body) {
		t.Fatal("file body corrupted through sendfile")
	}
	// The server took the kernel-assist path: the body went disk→wire
	// without ever being lifted into server user space.
	waitFor(t, "server-side deposit accounting", func() bool {
		return server.Stats().KzcDepositBytes.Load() != 0
	})
	if n := server.Stats().KzcDeposits.Load(); n != 1 {
		t.Fatalf("server KzcDeposits=%d, want 1 (sendfile)", n)
	}
	if n := server.Stats().KzcDepositBytes.Load(); n != 1<<20 {
		t.Fatalf("server KzcDepositBytes=%d", n)
	}
	if n := server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("server copied %d payload bytes on the sendfile path", n)
	}
}

// TestChaosKzcDroppedCompletionLeaseSweep is the kernel-ZC case of the
// chaos suite's lost-completion scenario: the bytes arrive but the
// MSG_ZEROCOPY completion never does. The lease sweeper must reclaim
// the deposit buffer (no leak), retire the data channel, and the next
// call must fall back to the marshaled path.
func TestChaosKzcDroppedCompletionLeaseSweep(t *testing.T) {
	inj := transport.NewFaultInjector(202).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassKzc,
		Kind: transport.FaultDropCompletion, Nth: 1,
	})
	p := kzcPair(t, &transport.KZC{Threshold: 4096, Faults: inj}, func(o *Options) {
		o.DepositLeaseTTL = 30 * time.Millisecond
		o.CallTimeout = 5 * time.Second
	})
	data := pattern(64 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
	if err != nil {
		t.Fatalf("put with dropped completion: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
	if n := inj.Fired(); n != 1 {
		t.Fatalf("injector fired %d times, want 1", n)
	}
	// The completion never arrives: the sweeper must expire the lease
	// and leave nothing outstanding.
	st := p.client.Stats()
	waitFor(t, "lease sweep of the orphaned deposit", func() bool {
		return st.LeaseExpiries.Load() >= 1 && p.client.leases.Pending() == 0
	})
	if n := st.KzcCompletions.Load(); n != 0 {
		t.Fatalf("KzcCompletions=%d after a dropped completion", n)
	}
	// Lease expiry retires the data channel; the next call must succeed
	// on the marshaled path.
	res, _, err = p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
	if err != nil {
		t.Fatalf("post-expiry put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("post-expiry checksum mismatch")
	}
	if n := st.PayloadCopyBytes.Load(); n == 0 {
		t.Fatal("post-expiry call did not take the marshaled path")
	}
}

// TestChaosKzcCopiedDegradeFallback: CopiedLimit=1 on loopback (where
// every completion is copied) degrades the channel after the first
// reaped completion; the next deposit falls back to the marshaled path
// and bumps KzcFallbacks — the EOPNOTSUPP/copied fallback contract.
func TestChaosKzcCopiedDegradeFallback(t *testing.T) {
	p := kzcPair(t, &transport.KZC{Threshold: 4096, CopiedLimit: 1}, func(o *Options) {
		o.CallTimeout = 5 * time.Second
	})
	data := pattern(64 << 10)
	st := p.client.Stats()
	if _, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)}); err != nil {
		t.Fatalf("first put: %v", err)
	}
	if n := st.KzcDeposits.Load(); n != 1 {
		t.Fatalf("KzcDeposits=%d, want 1", n)
	}
	// Wait for the copied completion to be reaped — that reap trips the
	// CopiedLimit and degrades the connection.
	waitFor(t, "copied completion", func() bool {
		return st.KzcCopiedCompletions.Load() >= 1
	})
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
	if err != nil {
		t.Fatalf("post-degrade put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
	waitFor(t, "kzc fallback accounting", func() bool {
		return st.KzcFallbacks.Load() >= 1
	})
	if n := st.KzcDeposits.Load(); n != 1 {
		t.Fatalf("KzcDeposits=%d after degrade, want still 1", n)
	}
	if n := p.client.leases.Pending(); n != 0 {
		t.Fatalf("leases outstanding after degrade: %d", n)
	}
}

// TestChaosKzcResetMidDeposit: the zero-copy send tears the data
// stream down mid-payload. The control channel survives, so the ORB
// must degrade to the marshaled path within the same invocation and
// settle the torn send's lease.
func TestChaosKzcResetMidDeposit(t *testing.T) {
	inj := transport.NewFaultInjector(303).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassKzc,
		Kind: transport.FaultReset, Nth: 1,
	})
	p := kzcPair(t, &transport.KZC{Threshold: 4096, Faults: inj}, func(o *Options) {
		o.CallTimeout = 5 * time.Second
		o.Retry = quickRetry(4)
	})
	data := pattern(64 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
	if err != nil {
		t.Fatalf("put through mid-deposit reset: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
	st := p.client.Stats()
	if n := st.DataChanFallbacks.Load(); n < 1 {
		t.Fatalf("DataChanFallbacks=%d, want >=1", n)
	}
	if n := p.client.leases.Pending(); n != 0 {
		t.Fatalf("leases outstanding after reset: %d", n)
	}
}

// TestKzcInvokeAllocsGate holds the MSG_ZEROCOPY deposit path to the
// same steady-state allocation budget as the other zero-copy paths:
// completion bookkeeping must not reintroduce per-request garbage.
func TestKzcInvokeAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: instrumentation skews the count")
	}
	ct, st := trace.New(0), trace.New(0)
	p := newPair(t,
		Options{ZeroCopy: true, DataListenAddr: "kzc://127.0.0.1:0", Tracer: st},
		Options{ZeroCopy: true, DataTransport: &transport.KZC{Threshold: 2048}, Tracer: ct})
	op := storeIface.Ops["put"]
	buf := zcbuf.Wrap(pattern(4096))
	want := checksum(buf.Bytes())

	for i := 0; i < 64; i++ {
		res, _, err := p.ref.Invoke(op, []any{buf})
		if err != nil {
			t.Fatalf("warmup invoke: %v", err)
		}
		if res.(uint32) != want {
			t.Fatalf("warmup checksum: got %d want %d", res, want)
		}
	}
	if p.client.Stats().KzcDeposits.Load() == 0 {
		t.Fatal("warmup did not take the MSG_ZEROCOPY path")
	}

	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.ref.Invoke(op, []any{buf}); err != nil {
				b.Fatalf("invoke: %v", err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > allocBudget {
		t.Fatalf("steady-state traced kzc invoke allocates %d objects/op, budget %d",
			allocs, allocBudget)
	} else {
		t.Logf("steady-state traced kzc invoke: %d allocs/op, %d B/op (budget %d)",
			allocs, res.AllocedBytesPerOp(), allocBudget)
	}
	if ct.SpanCount(trace.KindKzcDeposit) == 0 {
		t.Fatal("alloc gate measured without kzc deposit spans")
	}
}
