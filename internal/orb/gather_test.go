package orb

import (
	"testing"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// sendTrain sends bufs as op's ZC arguments in one InvokeAsync — a
// gathered deposit train is an ordinary call — and clears every buffer
// right after InvokeAsync returns, before Wait. That breaks the
// borrowing rule on purpose: with no forward or retry in play it
// checks the other half of the ownership contract, that no plane holds
// a reference once the send returns. A reply computed from the
// original bytes proves it.
func sendTrain(ref *ObjectRef, op *Operation, bufs []*zcbuf.Buffer) (any, error) {
	args := make([]any, len(bufs))
	for i, b := range bufs {
		args[i] = b
	}
	call := ref.InvokeAsync(op, args)
	for _, b := range bufs {
		clear(b.Bytes())
	}
	res, _, err := call.Wait()
	return res, err
}

// gatherBufs takes n pool buffers filled with distinct patterns and
// returns them with their total checksum.
func gatherBufs(t *testing.T, pl *zcbuf.Pool, n, size int) ([]*zcbuf.Buffer, uint32) {
	t.Helper()
	bufs := make([]*zcbuf.Buffer, n)
	var sum uint32
	for i := range bufs {
		b, err := pl.Get(size)
		if err != nil {
			t.Fatal(err)
		}
		p := b.Bytes()
		for j := range p {
			p[j] = byte(j*3 + i*11 + 7)
		}
		sum += checksum(p)
		bufs[i] = b
	}
	return bufs, sum
}

func releaseBufs(bufs []*zcbuf.Buffer) {
	for _, b := range bufs {
		b.Release()
	}
}

// TestGatherTrainDeposits sends an 8-buffer train over the tcp and
// inproc deposit planes: one call carries every segment, the server
// scatters them into per-buffer claims, and the call holds no
// reference to a buffer once it completes.
func TestGatherTrainDeposits(t *testing.T) {
	for _, mk := range []func(*testing.T, bool) *pair{tcpPair, inprocPair} {
		p := mk(t, true)
		var pl zcbuf.Pool
		bufs, want := gatherBufs(t, &pl, 8, 32<<10)
		res, err := sendTrain(p.ref, storeIface.Ops["put8"], bufs)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if res.(uint32) != want {
			t.Fatalf("checksum = %v, want %d", res, want)
		}
		for i, b := range bufs {
			if b.Refs() != 1 {
				t.Fatalf("buffer %d refs = %d after the call, want 1", i, b.Refs())
			}
		}
		cs := p.client.Stats()
		if got := cs.GatherDeposits.Load(); got != 1 {
			t.Fatalf("GatherDeposits = %d, want 1", got)
		}
		if got := cs.GatherSegments.Load(); got != 8 {
			t.Fatalf("GatherSegments = %d, want 8", got)
		}
		if got := p.server.Stats().GatherScatters.Load(); got != 1 {
			t.Fatalf("server GatherScatters = %d, want 1", got)
		}
		releaseBufs(bufs)
	}
}

// TestGatherTrainSingleWritev asserts the coalescing contract: an
// 8-segment train costs exactly one writev — its message's control
// write, which carries header, body and all eight segments — visible as
// transport write counts.
func TestGatherTrainSingleWritev(t *testing.T) {
	st := &transport.Stats{}
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: true},
		Options{Transport: &transport.TCP{Stats: st}, ZeroCopy: true})
	var pl zcbuf.Pool

	run := func() {
		t.Helper()
		bufs, want := gatherBufs(t, &pl, 8, 16<<10)
		defer releaseBufs(bufs)
		res, err := sendTrain(p.ref, storeIface.Ops["put8"], bufs)
		if err != nil || res.(uint32) != want {
			t.Fatalf("Wait: res=%v err=%v", res, err)
		}
	}
	run() // warm: connection setup settles
	before := st.Snapshot()
	run()
	after := st.Snapshot()
	if got := after.Writes - before.Writes; got != 1 {
		t.Fatalf("writes per train = %d, want 1 (the control writev)", got)
	}
	if got := after.GatherSegments - before.GatherSegments; got != 10 {
		t.Fatalf("gather segments per train = %d, want 10 (header, body and 8 segments)", got)
	}
}

// TestGatherTrainMarshaledPath: without zero-copy ORBs the train rides
// the standard marshaled path and the call still succeeds.
func TestGatherTrainMarshaledPath(t *testing.T) {
	p := inprocPair(t, false)
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 8<<10)
	defer releaseBufs(bufs)
	res, err := sendTrain(p.ref, storeIface.Ops["put2"], bufs)
	if err != nil || res.(uint32) != want {
		t.Fatalf("Wait: res=%v err=%v", res, err)
	}
	if got := p.client.Stats().GatherDeposits.Load(); got != 0 {
		t.Fatalf("GatherDeposits = %d on the marshaled path, want 0", got)
	}
}

// TestGatherTrainZeroLengthFallsBack: a zero-length segment cannot be
// announced as a deposit block (the wire format forbids it), so the
// whole train degrades to the marshaled path and still succeeds.
func TestGatherTrainZeroLengthFallsBack(t *testing.T) {
	p := tcpPair(t, true)
	var pl zcbuf.Pool
	bufs, _ := gatherBufs(t, &pl, 2, 8<<10)
	defer releaseBufs(bufs)
	empty, err := pl.Get(4096)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Release()
	empty.SetLen(0)
	want := checksum(bufs[0].Bytes())
	res, err := sendTrain(p.ref, storeIface.Ops["put2"], []*zcbuf.Buffer{bufs[0], empty})
	if err != nil || res.(uint32) != want {
		t.Fatalf("Wait: res=%v err=%v", res, err)
	}
	if got := p.client.Stats().GatherDeposits.Load(); got != 0 {
		t.Fatalf("GatherDeposits = %d for a zero-length train, want 0", got)
	}
	if got := p.client.Stats().DepositsSent.Load(); got != 0 {
		t.Fatalf("DepositsSent = %d for a zero-length train, want 0", got)
	}
}
