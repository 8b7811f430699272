package orb

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// assertTornTrain checks the aftermath of a train whose control stream
// tore mid-train: the call failed with COMM_FAILURE and kept no
// reference to its buffers, the connection is closed, the server gave
// back every buffer it took for the train, and a fresh connection
// carries the same train intact.
func assertTornTrain(t *testing.T, p *pair, op *Operation, bufs []*zcbuf.Buffer, want uint32,
	res any, err error) {
	t.Helper()
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "COMM_FAILURE" {
		t.Fatalf("want COMM_FAILURE through a torn control stream, got res=%v err=%v", res, err)
	}
	for i, b := range bufs {
		if b.Refs() != 1 {
			t.Fatalf("buffer %d refs = %d after the torn train, want 1", i, b.Refs())
		}
	}
	torn := refConn(p.ref)
	if torn == nil || torn.healthy() {
		t.Fatal("the torn connection is still open")
	}
	waitFor(t, "the server to give back the torn train's buffers", func() bool {
		return p.server.Pool().Stats().Outstanding == 0
	})
	if n := p.server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	if n := occupiedSlots(p.ref); n != 0 {
		t.Fatalf("reply slots leaked: %d", n)
	}
	// sendTrain cleared the buffers; refill them for the fresh call.
	for i, b := range bufs {
		for j := range b.Bytes() {
			b.Bytes()[j] = byte(j*3 + i*11 + 7)
		}
	}
	res, err = sendTrain(p.ref, op, bufs)
	if err != nil || res.(uint32) != want {
		t.Fatalf("train on a fresh connection: res=%v err=%v, want %d", res, err, want)
	}
	if refConn(p.ref) == torn {
		t.Fatal("the fresh train reused the torn connection")
	}
}

// TestGatherTrainTruncateMidTrain cuts the control write partway
// through an 8-segment deposit train (after ~2.5 segments' worth of
// bytes). The train rides the control stream, so the cut tears the
// connection: the call fails with COMM_FAILURE, and the server
// reclaims the partially received buffers.
func TestGatherTrainTruncateMidTrain(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(404).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultTruncate, Nth: 1, TruncateAt: 40 << 10,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second})

	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	op := storeIface.Ops["put8"]
	res, err := sendTrain(p.ref, op, bufs)
	assertTornTrain(t, p, op, bufs, want, res, err)
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Fired())
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestGatherTrainStallMidTrainLeaseExpires stalls the train's control
// write partway through, long past the server's deposit-lease TTL: the
// lease's expiry closes the connection (releasing every buffer granted
// to the train), and the call fails with COMM_FAILURE.
func TestGatherTrainStallMidTrainLeaseExpires(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(505).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultSlow, Nth: 1, Chunk: 8 << 10, Delay: 600 * time.Millisecond,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true, DepositLeaseTTL: 30 * time.Millisecond,
			CallTimeout: 5 * time.Second},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second})

	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	op := storeIface.Ops["put8"]
	res, err := sendTrain(p.ref, op, bufs)
	assertTornTrain(t, p, op, bufs, want, res, err)
	if got := p.server.Stats().LeaseExpiries.Load(); got < 1 {
		t.Fatalf("server LeaseExpiries = %d, want >= 1", got)
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestGatherTrainControlResetReportsErrors kills the control stream on
// the request write, before any fallback is possible: the call fails
// with COMM_FAILURE and keeps no reference to its buffers.
func TestGatherTrainControlResetReportsErrors(t *testing.T) {
	inj := transport.NewFaultInjector(606).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultReset, Nth: 1,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 2 * time.Second})

	var pl zcbuf.Pool
	bufs, _ := gatherBufs(t, &pl, 4, 8<<10)
	defer releaseBufs(bufs)
	_, err := sendTrain(p.ref, storeIface.Ops["put2"], bufs[:2])
	var se *SystemException
	if !errors.As(err, &se) || se.Name != "COMM_FAILURE" {
		t.Fatalf("want COMM_FAILURE through a reset control stream, got %v", err)
	}
	for i, b := range bufs[:2] {
		if b.Refs() != 1 {
			t.Fatalf("buffer %d refs = %d after failed train, want 1", i, b.Refs())
		}
	}
}
