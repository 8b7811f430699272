package orb

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// TestGatherTrainTruncateMidTrain cuts the data channel partway
// through an 8-segment deposit train (after ~2.5 segments' worth of
// bytes). The invocation must complete on the marshaled fallback, and
// the server must reclaim the partially received buffers. The fallback
// re-send happens inside InvokeAsync, so buffers cleared after it
// returns do not reach the server.
func TestGatherTrainTruncateMidTrain(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(404).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassData,
		Kind: transport.FaultTruncate, Nth: 2, TruncateAt: 40 << 10,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second})

	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	res, err := sendTrain(p.ref, storeIface.Ops["put8"], bufs)
	if err != nil {
		t.Fatalf("Wait after truncated train: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch after fallback")
	}
	if got := p.client.Stats().DataChanFallbacks.Load(); got < 1 {
		t.Fatalf("client DataChanFallbacks = %d, want >= 1", got)
	}
	if got := p.server.Stats().DepositAborts.Load(); got < 1 {
		t.Fatalf("server DepositAborts = %d, want >= 1", got)
	}
	if n := p.server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	if n := p.client.leases.Pending(); n != 0 {
		t.Fatalf("client deposit leases outstanding: %d", n)
	}
	if n := pendingTotal(p.ref); n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestGatherTrainStallMidTrainLeaseExpires stalls the train's data
// write long past the server's deposit-lease TTL: the server's sweeper
// reclaims the partially announced train (releasing every granted
// buffer), the data channel is retired, and the call completes on the
// marshaled path with the original bytes.
func TestGatherTrainStallMidTrainLeaseExpires(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(505).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassData,
		Kind: transport.FaultStall, Nth: 2, Delay: 600 * time.Millisecond,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true, DepositLeaseTTL: 30 * time.Millisecond,
			CallTimeout: 5 * time.Second},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second})

	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 8, 16<<10)
	defer releaseBufs(bufs)
	res, err := sendTrain(p.ref, storeIface.Ops["put8"], bufs)
	if err != nil {
		t.Fatalf("Wait after stalled train: %v", err)
	}
	if res.(uint32) != want {
		t.Fatal("checksum mismatch after fallback")
	}
	if got := p.server.Stats().LeaseExpiries.Load(); got < 1 {
		t.Fatalf("server LeaseExpiries = %d, want >= 1", got)
	}
	if got := p.client.Stats().DataChanFallbacks.Load(); got < 1 {
		t.Fatalf("client DataChanFallbacks = %d, want >= 1", got)
	}
	if n := p.server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	if n := pendingTotal(p.ref); n != 0 {
		t.Fatalf("pending entries leaked: %d", n)
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
