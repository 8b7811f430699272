//go:build linux

package orb

import (
	"runtime/debug"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// TestSendBuffersShmGather sends a 4-segment train through the
// shared-memory ring: one ring reservation publishes all four records
// (one transport write), the server claims each record zero-copy, and
// no payload byte is copied on either side.
func TestSendBuffersShmGather(t *testing.T) {
	p := shmPair(t, "shm-test-host")
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 64<<10)
	defer releaseBufs(bufs)
	log := newCompletionLog()
	call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"], bufs, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch")
	}
	for i, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("buffer %d completion error: %v", i, e)
		}
	}
	cs := p.client.Stats()
	if got := cs.ShmDeposits.Load(); got != 1 {
		t.Fatalf("ShmDeposits = %d trains, want 1", got)
	}
	if got := cs.GatherDeposits.Load(); got != 1 {
		t.Fatalf("GatherDeposits = %d, want 1", got)
	}
	if got := cs.GatherSegments.Load(); got != 2 {
		t.Fatalf("GatherSegments = %d, want 2", got)
	}
	ss := p.server.Stats()
	if got := ss.ShmClaims.Load(); got != 2 {
		t.Fatalf("server ShmClaims = %d, want 2", got)
	}
	if got := ss.GatherScatters.Load(); got != 1 {
		t.Fatalf("server GatherScatters = %d, want 1", got)
	}
	if n := ss.PayloadCopyBytes.Load() + cs.PayloadCopyBytes.Load(); n != 0 {
		t.Fatalf("%d payload bytes copied on the shm gather path", n)
	}
}

// TestSendBuffersShmPeerKillPartialReservation kills the ring on the
// train's deposit write: the reservation fails, the data channel is
// retired, the call completes on the marshaled fallback, and no lease
// or callback is leaked.
func TestSendBuffersShmPeerKillPartialReservation(t *testing.T) {
	// ClassShm write 1 is the ZCDC promotion preamble; write 2 is the
	// train's ring reservation.
	inj := transport.NewFaultInjector(17).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassShm,
		Kind: transport.FaultPeerKill, Nth: 2,
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
		ZeroCopy:      true,
		HostID:        "shm-test-host",
		DataTransport: &transport.SHM{Faults: inj},
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}

	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	log := newCompletionLog()
	call, err := cref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil {
		t.Fatalf("Wait after ring peer-kill: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch after fallback")
	}
	for i, e := range log.assertOnce(t, 8) {
		if e != nil {
			t.Fatalf("buffer %d completion error after successful fallback: %v", i, e)
		}
	}
	if got := client.Stats().DataChanFallbacks.Load(); got < 1 {
		t.Fatalf("DataChanFallbacks = %d, want >= 1", got)
	}
	if n := client.leases.Pending(); n != 0 {
		t.Fatalf("client deposit leases outstanding: %d", n)
	}
	if n := server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
}

// storeFaults attempts p[0] = 0xFF and reports whether the store
// faulted (recoverable panic under SetPanicOnFault) instead of
// landing — the DebugWriteGuard detection mechanism.
func storeFaults(p []byte) (faulted bool) {
	old := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(old)
	defer func() {
		if recover() != nil {
			faulted = true
		}
	}()
	p[0] = 0xFF
	return false
}

// testWriteGuardOnPair drives the DebugWriteGuard regression on one
// deposit plane: the train's data write is stalled by the injector so
// the test can provably attempt a store while the buffers are in
// flight. The store must fault (reported, not landed), the payload
// must arrive intact, and the buffers must be writable again after
// their completions fire.
func testWriteGuardOnPair(t *testing.T, p *pair) {
	t.Helper()
	if raceDetectorEnabled {
		// The probe store races with the in-flight send by design; the
		// guard faults it before it lands, but the race detector logs
		// the write event ahead of the mprotect fault.
		t.Skip("write-guard probe store is a deliberate race")
	}
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 32<<10)
	defer releaseBufs(bufs)
	orig := bufs[0].Bytes()[0]
	for _, b := range bufs {
		r, err := zcbuf.Register(b)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.EnableWriteGuard(); err != nil {
			t.Fatalf("EnableWriteGuard: %v", err)
		}
	}
	log := newCompletionLog()
	type outcome struct {
		call *Call
		err  error
	}
	sent := make(chan outcome, 1)
	go func() {
		call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"], bufs, log.cb)
		sent <- outcome{call, err}
	}()
	// The injector is stalling the data write: the guard window is
	// provably open until the stall elapses.
	time.Sleep(100 * time.Millisecond)
	if !storeFaults(bufs[0].Bytes()) {
		t.Fatal("store into a guarded in-flight buffer did not fault")
	}
	if bufs[0].Bytes()[0] != orig {
		t.Fatal("the faulting store landed in a guarded buffer")
	}
	out := <-sent
	if out.err != nil {
		t.Fatalf("SendBuffers: %v", out.err)
	}
	res, _, err := out.call.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("payload corrupted despite the write guard")
	}
	// Both completions fired before SendBuffers returned, so the guard
	// is lifted: stores land again.
	for i, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("buffer %d completion error: %v", i, e)
		}
	}
	bufs[0].Bytes()[0] = orig ^ 0xFF
	if bufs[0].Bytes()[0] != orig^0xFF {
		t.Fatal("buffer not writable after completion")
	}
}

// TestSendBuffersWriteGuardTCP: the guard regression on the plain TCP
// deposit plane.
func TestSendBuffersWriteGuardTCP(t *testing.T) {
	inj := transport.NewFaultInjector(21).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassData,
		Kind: transport.FaultStall, Nth: 2, Delay: 400 * time.Millisecond,
	})
	p := chaosPair(t, &transport.TCP{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second})
	testWriteGuardOnPair(t, p)
}

// TestSendBuffersWriteGuardShm: the guard regression on the
// shared-memory plane (the ring reservation is stalled).
func TestSendBuffersWriteGuardShm(t *testing.T) {
	inj := transport.NewFaultInjector(23).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassShm,
		Kind: transport.FaultStall, Nth: 2, Delay: 400 * time.Millisecond,
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
		ZeroCopy:      true,
		HostID:        "shm-test-host",
		DataTransport: &transport.SHM{Faults: inj},
		CallTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("client ORB: %v", err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatalf("StringToObject: %v", err)
	}
	p := &pair{server: server, client: client, servant: sv, ref: cref}
	testWriteGuardOnPair(t, p)
}
