//go:build linux

package orb

import (
	"errors"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// TestGatherTrainShm sends a 2-segment train through the
// shared-memory ring: one ring reservation publishes both records
// (one transport write), the server claims each record zero-copy, and
// no payload byte is copied on either side.
func TestGatherTrainShm(t *testing.T) {
	p := shmPair(t, "shm-test-host")
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 64<<10)
	defer releaseBufs(bufs)
	res, err := sendTrain(p.ref, storeIface.Ops["put2"], bufs)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch")
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

// TestGatherTrainShmPeerKillPartialReservation kills the peer on the
// train's ring reservation. Ring and GIOP share the one socket, so the
// peer's death ends the connection: the fallback's re-send either finds
// it dead (COMM_FAILURE) or, once the reader has retired it, redials.
// Either way the call ends instead of hanging, no lease is leaked, and
// the next train completes through a fresh ring.
func TestGatherTrainShmPeerKillPartialReservation(t *testing.T) {
	// ClassShm write 1 is the train's ring reservation.
	inj := transport.NewFaultInjector(17).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassShm,
		Kind: transport.FaultPeerKill, Nth: 1,
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
		ZeroCopy:    true,
		HostID:      "shm-test-host",
		Transport:   &transport.SHM{Faults: inj},
		CallTimeout: 5 * time.Second,
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
	bufs, _ := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	_, err = sendTrain(cref, storeIface.Ops["put8"], bufs)
	var se *SystemException
	if err != nil && (!errors.As(err, &se) || se.Name != "COMM_FAILURE") {
		t.Fatalf("Wait after ring peer-kill: %v, want success or COMM_FAILURE", err)
	}
	if n := inj.Fired(); n != 1 {
		t.Fatalf("injector fired %d times, want 1", n)
	}
	again, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(again)
	res, err := sendTrain(cref, storeIface.Ops["put8"], again)
	if err != nil {
		t.Fatalf("train after the redial: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch after the redial")
	}
	if got := client.Stats().ShmDeposits.Load(); got < 1 {
		t.Fatalf("ShmDeposits = %d, want the redialled ring's", got)
	}
	if n := client.leases.Pending(); n != 0 {
		t.Fatalf("client deposit leases outstanding: %d", n)
	}
	waitFor(t, "the server's leases to settle", func() bool { return server.leases.Pending() == 0 })
}
