package orb

import (
	"sync"
	"testing"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// completionLog collects SendBuffers per-buffer callbacks.
type completionLog struct {
	mu   sync.Mutex
	errs map[int][]error
}

func newCompletionLog() *completionLog {
	return &completionLog{errs: map[int][]error{}}
}

func (l *completionLog) cb(i int, err error) {
	l.mu.Lock()
	l.errs[i] = append(l.errs[i], err)
	l.mu.Unlock()
}

// assertOnce asserts every index in [0, n) completed exactly once, and
// returns the per-index errors.
func (l *completionLog) assertOnce(t *testing.T, n int) []error {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]error, n)
	for i := 0; i < n; i++ {
		if got := len(l.errs[i]); got != 1 {
			t.Fatalf("buffer %d completed %d times, want 1 (%v)", i, got, l.errs[i])
		}
		out[i] = l.errs[i][0]
	}
	if len(l.errs) != n {
		t.Fatalf("%d distinct buffers completed, want %d", len(l.errs), n)
	}
	return out
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

// TestSendBuffersGatherDeposits sends an 8-buffer train over the
// tcp and inproc deposit planes: one call carries every segment, the
// server scatters them into per-buffer claims, and each buffer
// completes exactly once with a nil error.
func TestSendBuffersGatherDeposits(t *testing.T) {
	for _, mk := range []func(*testing.T, bool) *pair{tcpPair, inprocPair} {
		p := mk(t, true)
		var pl zcbuf.Pool
		bufs, want := gatherBufs(t, &pl, 8, 32<<10)
		log := newCompletionLog()
		call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, log.cb)
		if err != nil {
			t.Fatalf("SendBuffers: %v", err)
		}
		res, _, err := call.Wait()
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if res.(uint32) != want {
			t.Fatalf("checksum = %v, want %d", res, want)
		}
		for _, e := range log.assertOnce(t, 8) {
			if e != nil {
				t.Fatalf("completion error: %v", e)
			}
		}
		for i, b := range bufs {
			if b.Refs() != 1 {
				t.Fatalf("buffer %d refs = %d after completion, want 1", i, b.Refs())
			}
		}
		cs := p.client.Stats()
		if got := cs.GatherDeposits.Load(); got != 1 {
			t.Fatalf("GatherDeposits = %d, want 1", got)
		}
		if got := cs.GatherSegments.Load(); got != 8 {
			t.Fatalf("GatherSegments = %d, want 8", got)
		}
		if got := cs.GatherCompletions.Load(); got != 8 {
			t.Fatalf("GatherCompletions = %d, want 8", got)
		}
		if got := p.server.Stats().GatherScatters.Load(); got != 1 {
			t.Fatalf("server GatherScatters = %d, want 1", got)
		}

		// A plain Invoke with the same eight ZC arguments forms the
		// same single train: no SendBuffers needed for one writev.
		args := make([]any, len(bufs))
		for i, b := range bufs {
			args[i] = b
		}
		res, _, err = p.ref.Invoke(storeIface.Ops["put8"], args)
		if err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if res.(uint32) != want {
			t.Fatalf("Invoke checksum = %v, want %d", res, want)
		}
		if got := cs.GatherDeposits.Load(); got != 2 {
			t.Fatalf("Invoke: GatherDeposits = %d, want 1 more", got-1)
		}
		if got := cs.GatherSegments.Load(); got != 16 {
			t.Fatalf("Invoke: GatherSegments = %d, want 8 more", got-8)
		}
		if got := p.server.Stats().GatherScatters.Load(); got != 2 {
			t.Fatalf("Invoke: server GatherScatters = %d, want 1 more", got-1)
		}
		releaseBufs(bufs)
	}
}

// TestSendBuffersSingleWritev asserts the coalescing contract of the
// tentpole: an 8-segment train costs exactly one data-plane writev
// (plus the control-message writev), visible as transport write
// counts.
func TestSendBuffersSingleWritev(t *testing.T) {
	st := &transport.Stats{}
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: true},
		Options{Transport: &transport.TCP{Stats: st}, ZeroCopy: true})
	var pl zcbuf.Pool

	run := func() {
		t.Helper()
		bufs, want := gatherBufs(t, &pl, 8, 16<<10)
		defer releaseBufs(bufs)
		call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, nil)
		if err != nil {
			t.Fatalf("SendBuffers: %v", err)
		}
		res, _, err := call.Wait()
		if err != nil || res.(uint32) != want {
			t.Fatalf("Wait: res=%v err=%v", res, err)
		}
	}
	run() // warm: channel setup writes settle
	before := st.Snapshot()
	run()
	after := st.Snapshot()
	// One gather write for the control message (header+body) and one
	// for the whole 8-segment deposit train.
	if got := after.Writes - before.Writes; got != 2 {
		t.Fatalf("writes per train = %d, want 2 (1 control + 1 data writev)", got)
	}
	if got := after.GatherSegments - before.GatherSegments; got != 10 {
		t.Fatalf("gather segments per train = %d, want 10 (2 control + 8 data)", got)
	}
}

// TestSendBuffersValidation: shape errors surface before any buffer is
// retained or any callback fires.
func TestSendBuffersValidation(t *testing.T) {
	p := inprocPair(t, true)
	var pl zcbuf.Pool
	bufs, _ := gatherBufs(t, &pl, 2, 4096)
	defer releaseBufs(bufs)
	log := newCompletionLog()

	if _, err := p.ref.SendBuffers(t.Context(), nil, bufs, log.cb); err == nil {
		t.Fatal("nil operation accepted")
	}
	if _, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put8"], bufs, log.cb); err == nil {
		t.Fatal("wrong buffer count accepted")
	}
	if _, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["swap"], bufs, log.cb); err == nil {
		t.Fatal("non-ZC operation accepted")
	}
	if _, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"],
		[]*zcbuf.Buffer{bufs[0], nil}, log.cb); err == nil {
		t.Fatal("nil buffer accepted")
	}
	log.mu.Lock()
	if len(log.errs) != 0 {
		t.Fatalf("callbacks fired on validation failure: %v", log.errs)
	}
	log.mu.Unlock()
	for i, b := range bufs {
		if b.Refs() != 1 {
			t.Fatalf("buffer %d refs = %d after rejected sends, want 1", i, b.Refs())
		}
	}
}

// TestSendBuffersMarshaledPath: without a data channel the train rides
// the standard marshaled path — the call still succeeds and every
// buffer completes (completion means reuse-safe, not zero-copied).
func TestSendBuffersMarshaledPath(t *testing.T) {
	p := inprocPair(t, false)
	var pl zcbuf.Pool
	bufs, want := gatherBufs(t, &pl, 2, 8<<10)
	defer releaseBufs(bufs)
	log := newCompletionLog()
	call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"], bufs, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil || res.(uint32) != want {
		t.Fatalf("Wait: res=%v err=%v", res, err)
	}
	for _, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("completion error: %v", e)
		}
	}
	if got := p.client.Stats().GatherDeposits.Load(); got != 0 {
		t.Fatalf("GatherDeposits = %d on the marshaled path, want 0", got)
	}
}

// TestSendBuffersZeroLengthFallsBack: a zero-length segment cannot be
// announced as a deposit block (the wire format forbids it), so the
// whole train degrades to the marshaled path and still completes.
func TestSendBuffersZeroLengthFallsBack(t *testing.T) {
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
	log := newCompletionLog()
	call, err := p.ref.SendBuffers(t.Context(), storeIface.Ops["put2"],
		[]*zcbuf.Buffer{bufs[0], empty}, log.cb)
	if err != nil {
		t.Fatalf("SendBuffers: %v", err)
	}
	res, _, err := call.Wait()
	if err != nil || res.(uint32) != want {
		t.Fatalf("Wait: res=%v err=%v", res, err)
	}
	for _, e := range log.assertOnce(t, 2) {
		if e != nil {
			t.Fatalf("completion error: %v", e)
		}
	}
	if got := p.client.Stats().GatherDeposits.Load(); got != 0 {
		t.Fatalf("GatherDeposits = %d for a zero-length train, want 0", got)
	}
	if got := p.client.Stats().DepositsSent.Load(); got != 0 {
		t.Fatalf("DepositsSent = %d for a zero-length train, want 0", got)
	}
}
