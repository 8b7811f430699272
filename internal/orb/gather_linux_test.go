//go:build linux

package orb

import (
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

// TestGatherTrainShmPeerKillPartialReservation kills the ring on the
// train's deposit write: the reservation fails, the data channel is
// retired, the call completes on the marshaled fallback, and no lease
// is leaked.
func TestGatherTrainShmPeerKillPartialReservation(t *testing.T) {
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
	res, err := sendTrain(cref, storeIface.Ops["put8"], bufs)
	if err != nil {
		t.Fatalf("Wait after ring peer-kill: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch after fallback")
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
