//go:build linux

package orb

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"zcorba/internal/shmem"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// shmPair starts a server with an shm endpoint beside its tcp control
// endpoint and a co-located client, which dials the shm endpoint as its
// one connection. Host identities are pinned so the test controls
// co-location discovery explicitly.
func shmPair(t *testing.T, clientHost string) *pair {
	t.Helper()
	return newPair(t,
		Options{
			ZeroCopy:       true,
			DataListenAddr: "shm://" + t.TempDir() + "/data.sock",
			HostID:         "shm-test-host",
		},
		Options{ZeroCopy: true, HostID: clientHost})
}

func TestShmDataPlaneRoundTrip(t *testing.T) {
	p := shmPair(t, "shm-test-host")
	data := pattern(1 << 20)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatalf("checksum mismatch")
	}
	// The payload must have traveled through the ring: deposited by the
	// client, claimed (not copied) by the server.
	if n := p.client.Stats().ShmDeposits.Load(); n != 1 {
		t.Fatalf("ShmDeposits=%d, want 1", n)
	}
	if n := p.client.Stats().ShmDepositBytes.Load(); n != 1<<20 {
		t.Fatalf("ShmDepositBytes=%d", n)
	}
	if n := p.server.Stats().ShmClaims.Load(); n != 1 {
		t.Fatalf("server ShmClaims=%d, want 1", n)
	}
	if n := p.server.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("server copied %d payload bytes on shm path", n)
	}
	if n := p.client.Stats().PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("client copied %d payload bytes on shm path", n)
	}
}

func TestShmDataPlaneReplyPath(t *testing.T) {
	p := shmPair(t, "shm-test-host")
	data := pattern(256 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["echo"], []any{data})
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	buf := res.(interface {
		Bytes() []byte
		Release()
	})
	if !bytes.Equal(buf.Bytes(), data) {
		buf.Release()
		t.Fatalf("echo corrupted payload")
	}
	buf.Release()
	// Reply deposits flow server→client through the other ring.
	if n := p.server.Stats().ShmDeposits.Load(); n != 1 {
		t.Fatalf("server ShmDeposits=%d, want 1", n)
	}
	if n := p.client.Stats().ShmClaims.Load(); n != 1 {
		t.Fatalf("client ShmClaims=%d, want 1", n)
	}
}

func TestShmHostMismatchFallsBack(t *testing.T) {
	p := shmPair(t, "some-other-host")
	data := pattern(64 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatalf("checksum mismatch")
	}
	if n := p.client.Stats().ShmMisses.Load(); n != 1 {
		t.Fatalf("ShmMisses=%d, want 1", n)
	}
	if n := p.client.Stats().ShmDeposits.Load(); n != 0 {
		t.Fatalf("ShmDeposits=%d on a host mismatch", n)
	}
	// The call still succeeded, so it must have taken the marshaled
	// path end to end.
	if n := p.client.Stats().PayloadCopyBytes.Load(); n == 0 {
		t.Fatal("no marshal copies on the fallback path")
	}
}

// TestShmSegmentsReclaimedOnShutdown proves the data plane does not
// leak mapped segments: after both ORBs shut down, every segment
// created for the connection's ring pair is unmapped.
func TestShmSegmentsReclaimedOnShutdown(t *testing.T) {
	base := shmem.LiveSegments()
	p := shmPair(t, "shm-test-host")
	data := pattern(1 << 20)
	if _, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data}); err != nil {
		t.Fatalf("put: %v", err)
	}
	if shmem.LiveSegments() <= base {
		t.Fatal("no live segment while the shm data plane is up")
	}
	p.client.Shutdown()
	p.server.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for shmem.LiveSegments() > base {
		if time.Now().After(deadline) {
			t.Fatalf("segments leaked: %d live, baseline %d",
				shmem.LiveSegments(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShmRingFaultFallsBack injects a ring stall into the client's shm
// deposit write: the write fails, the ORB retires the ring and
// transparently re-sends the same request on the marshaled path, on
// the same connection.
func TestShmRingFaultFallsBack(t *testing.T) {
	// The first ClassShm write on the client's connection is the deposit
	// payload: promotion and GIOP travel the socket.
	inj := transport.NewFaultInjector(7).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassShm,
		Kind: transport.FaultRingStall, Nth: 1,
	})
	server, err := New(Options{
		ZeroCopy:       true,
		DataListenAddr: "shm://" + t.TempDir() + "/data.sock",
		HostID:         "shm-test-host",
	})
	if err != nil {
		t.Fatalf("server ORB: %v", err)
	}
	t.Cleanup(server.Shutdown)
	sv := newStoreServant()
	ref, err := server.Activate("store", sv)
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	client, err := New(Options{
		ZeroCopy:  true,
		HostID:    "shm-test-host",
		Transport: &transport.SHM{Faults: inj},
	})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	data := pattern(128 << 10)
	res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatalf("checksum mismatch")
	}
	if n := client.Stats().DataChanFallbacks.Load(); n != 1 {
		t.Fatalf("DataChanFallbacks=%d, want 1", n)
	}
	if n := inj.Fired(); n != 1 {
		t.Fatalf("injector fired %d times, want 1", n)
	}
	if n := server.ServerConns(); n != 1 {
		t.Fatalf("server holds %d connections after the fallback, want the 1 it had", n)
	}
}

// TestChaosShmStalledDepositLeaseExpires is the shm case of the chaos
// suite's stalled-deposit scenario: the client's ring deposit stalls
// long past the server's claim-lease TTL, so the lease sweeper must
// reclaim the orphaned lease, retire the ring on both sides of the one
// connection, and unmap the segment — the call still completes on the
// marshaled path.
func TestChaosShmStalledDepositLeaseExpires(t *testing.T) {
	base := shmem.LiveSegments()
	// ClassShm write #1 is the first deposit payload, the one the stall
	// delays.
	inj := transport.NewFaultInjector(404).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassShm,
		Kind: transport.FaultStall, Nth: 1, Delay: 600 * time.Millisecond,
	})
	server, err := New(Options{
		ZeroCopy:        true,
		DataListenAddr:  "shm://" + t.TempDir() + "/data.sock",
		HostID:          "shm-test-host",
		DepositLeaseTTL: 30 * time.Millisecond,
		CallTimeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatalf("server ORB: %v", err)
	}
	t.Cleanup(server.Shutdown)
	ref, err := server.Activate("store", newStoreServant())
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	client, err := New(Options{
		ZeroCopy:    true,
		HostID:      "shm-test-host",
		Transport:   &transport.SHM{Faults: inj},
		CallTimeout: 5 * time.Second,
		Retry:       quickRetry(4),
	})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	data := pattern(64 << 10)
	res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("invoke with stalled shm deposit: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
	if got := server.Stats().LeaseExpiries.Load(); got < 1 {
		t.Fatalf("server LeaseExpiries = %d, want >= 1", got)
	}
	if got := server.Stats().DepositAborts.Load(); got < 1 {
		t.Fatalf("server DepositAborts = %d, want >= 1", got)
	}
	if got := client.Stats().DataChanFallbacks.Load(); got < 1 {
		t.Fatalf("client DataChanFallbacks = %d, want >= 1", got)
	}
	if n := server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	// The orphaned ring must be unmapped once both sides retire it;
	// nothing here calls Shutdown first.
	deadline := time.Now().Add(5 * time.Second)
	for shmem.LiveSegments() > base {
		if time.Now().After(deadline) {
			t.Fatalf("orphaned segment not reclaimed: %d live, baseline %d",
				shmem.LiveSegments(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShmInvokeAllocsGate holds the shared-memory deposit path to the
// same steady-state allocation budget as the TCP zero-copy path
// (allocBudget): the ring must not reintroduce per-request garbage.
// Tracing is live on both sides, as in TestInvokeAllocsGate.
func TestShmInvokeAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: instrumentation skews the count")
	}
	ct, st := trace.New(0), trace.New(0)
	p := newPair(t,
		Options{
			ZeroCopy:       true,
			DataListenAddr: "shm://" + t.TempDir() + "/data.sock",
			HostID:         "shm-test-host",
			Tracer:         st,
		},
		Options{ZeroCopy: true, HostID: "shm-test-host", Tracer: ct})
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
	if p.client.Stats().ShmDeposits.Load() == 0 {
		t.Fatal("warmup did not take the ring path")
	}

	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.ref.Invoke(op, []any{buf}); err != nil {
				b.Fatalf("invoke: %v", err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > allocBudget {
		t.Fatalf("steady-state traced shm invoke allocates %d objects/op, budget %d",
			allocs, allocBudget)
	} else {
		t.Logf("steady-state traced shm invoke: %d allocs/op, %d B/op (budget %d)",
			allocs, res.AllocedBytesPerOp(), allocBudget)
	}
	if ct.SpanCount(trace.KindShmDeposit) == 0 {
		t.Fatal("alloc gate measured without shm deposit spans")
	}
}

// countingSHM is the shm transport with its dials counted.
type countingSHM struct {
	transport.SHM
	dials atomic.Int64
}

func (t *countingSHM) Dial(addr string) (transport.Conn, error) {
	t.dials.Add(1)
	return t.SHM.Dial(addr)
}

// TestShmPairOpensOneSocket: a same-host zero-copy client dials the
// server's shm endpoint as its one connection. GIOP rides that Unix
// socket and every deposit, page and bulk, request and reply, rides
// the ring beside it: one dial, one accept, and the tcp control
// endpoint is never dialled.
func TestShmPairOpensOneSocket(t *testing.T) {
	srvTCP, cli := &countingTCP{}, &countingSHM{}
	p := newPair(t,
		Options{Transport: srvTCP, ZeroCopy: true, HostID: "shm-test-host",
			DataListenAddr: "shm://" + t.TempDir() + "/data.sock"},
		Options{Transport: cli, ZeroCopy: true, HostID: "shm-test-host"})
	for _, size := range []int{4 << 10, 1 << 20} {
		data := pattern(size)
		res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{zcbuf.Wrap(data)})
		if err != nil || res.(uint32) != checksum(data) {
			t.Fatalf("put %d: res=%v err=%v", size, res, err)
		}
	}
	res, _, err := p.ref.Invoke(storeIface.Ops["get"], []any{uint32(1 << 20)})
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	res.(*zcbuf.Buffer).Release()
	if got := p.client.Stats().ShmDeposits.Load(); got != 2 {
		t.Fatalf("client ShmDeposits = %d, want 2", got)
	}
	if got := p.client.Stats().ShmClaims.Load(); got != 1 {
		t.Fatalf("client ShmClaims = %d, want 1", got)
	}
	// The server's shm listener is a default one, so its accepts are
	// counted as the connections it holds.
	if d, a := cli.dials.Load(), p.server.ServerConns(); d != 1 || a != 1 {
		t.Fatalf("client dialled %d connections, server holds %d; want 1 and 1", d, a)
	}
	if a := srvTCP.accepts.Load(); a != 0 {
		t.Fatalf("server accepted %d connections on its tcp endpoint, want 0", a)
	}
}
