package orb

import (
	"errors"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"zcorba/internal/cdr"
	"zcorba/internal/giop"
	"zcorba/internal/transport"
)

// The chaos suite drives the ORB through deterministic, seeded fault
// schedules (internal/transport.FaultInjector) and asserts the
// resilience contract of PR 2: calls either complete correctly (via
// retry or the marshaled fallback) or fail with a clean CORBA system
// exception; no call hangs, no reply is lost or double-delivered, no
// goroutine or reply slot leaks.
//
// Every scenario shuts its ORBs down explicitly inside the test body
// (Shutdown is idempotent, so the newPair cleanups become no-ops) and
// then checks the goroutine count drains back to the baseline.

// assertNoGoroutineLeak waits for the goroutine count to drain back to
// the pre-test baseline (with small slack for runtime helpers).
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d at start, %d after shutdown\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// occupiedSlots counts the occupied reply slots across a reference's
// connections (tests use it to prove the tables do not leak).
func occupiedSlots(r *ObjectRef) int {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	n := 0
	for _, c := range r.conns {
		if c != nil {
			n += c.occupiedSlots()
		}
	}
	return n
}

// occupiedSlots counts the connection's occupied reply slots.
func (c *conn) occupiedSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, s := range c.slots {
		if s.kind != slotFree {
			n++
		}
	}
	return n
}

// chaosPair builds a server on base and a client whose transport is
// wrapped with the given fault injector.
func chaosPair(t *testing.T, base transport.Transport, inj *transport.FaultInjector,
	serverOpts, clientOpts Options) *pair {
	t.Helper()
	serverOpts.Transport = base
	clientOpts.Transport = &transport.Faulty{Inner: base, Inj: inj}
	return newPair(t, serverOpts, clientOpts)
}

// quickRetry is the chaos-test retry policy: aggressive but bounded.
func quickRetry(attempts int) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, InitialBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond}
}

// TestChaosResetBeforeReply injects a connection reset on the client's
// first control read: the request reaches the server but the reply is
// lost with the connection. The retry policy must reconnect and
// complete the (idempotent) call.
func TestChaosResetBeforeReply(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(101).Add(transport.Rule{
		Op: transport.OpRead, Class: transport.ClassControl,
		Kind: transport.FaultReset, Nth: 1,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second, Retry: quickRetry(4)})

	data := pattern(16 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("invoke under reset: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch after retry")
	}
	if got := p.client.Stats().Retries.Load(); got < 1 {
		t.Fatalf("Retries = %d, want >= 1", got)
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Fired())
	}
	if n := occupiedSlots(p.ref); n != 0 {
		t.Fatalf("reply slots leaked: %d", n)
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// refConn returns the connection a reference's calls currently take.
func refConn(r *ObjectRef) *conn {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	if len(r.conns) == 0 {
		return nil
	}
	return r.conns[0]
}

// TestChaosTruncateMidDeposit cuts the client's control write partway
// through a deposit train: every stream-plane train rides the control
// stream, so the cut tears the connection itself. The attempt fails
// with COMM_FAILURE, the retry policy redials, and the call completes
// with its deposit intact on a fresh connection; the server gives back
// the partly filled buffer and nothing degrades to the marshaled path.
func TestChaosTruncateMidDeposit(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(202).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultTruncate, Nth: 2, TruncateAt: 64 << 10,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second, Retry: quickRetry(4)})

	warm := pattern(8 << 10)
	if res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{warm}); err != nil || res.(uint32) != checksum(warm) {
		t.Fatalf("warm-up put: res=%v err=%v", res, err)
	}
	torn := refConn(p.ref)
	data := pattern(256 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("invoke with truncated train: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch after retry")
	}
	if inj.Fired() != 1 {
		t.Fatalf("injector fired %d faults, want 1", inj.Fired())
	}
	if got := p.client.Stats().Retries.Load(); got < 1 {
		t.Fatalf("client Retries = %d, want >= 1", got)
	}
	if torn.healthy() || refConn(p.ref) == torn {
		t.Fatal("the torn connection was kept; the retry must redial")
	}
	if got := p.client.Stats().DataChanFallbacks.Load(); got != 0 {
		t.Fatalf("client DataChanFallbacks = %d for a torn control stream, want 0", got)
	}
	waitFor(t, "the server to give back the torn train's buffer", func() bool {
		return p.server.Pool().Stats().Outstanding == 0
	})
	if n := p.server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	if n := occupiedSlots(p.ref); n != 0 {
		t.Fatalf("reply slots leaked: %d", n)
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestChaosTruncatedHeader sends a partial GIOP header and disconnects.
// The server must shrug it off and keep serving fresh connections.
func TestChaosTruncatedHeader(t *testing.T) {
	before := runtime.NumGoroutine()
	o := startServer(t, Options{})

	c := dialRaw(t, o)
	var hdr [giop.HeaderSize]byte
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Type: giop.MsgRequest, Size: 64})
	if _, err := c.Write(hdr[:7]); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()

	// A fresh connection is answered normally.
	c2 := dialRaw(t, o)
	e := cdr.NewEncoder(cdr.NativeOrder, giop.HeaderSize)
	(&giop.LocateRequestHeader{RequestID: 7, ObjectKey: []byte("store")}).Marshal(e)
	giop.EncodeHeader(hdr[:], giop.Header{Major: 1, Flags: byte(cdr.NativeOrder),
		Type: giop.MsgLocateRequest, Size: uint32(len(e.Bytes()))})
	if _, err := c2.WriteGather(hdr[:], e.Bytes()); err != nil {
		t.Fatal(err)
	}
	rh, err := giop.ReadHeader(c2)
	if err != nil {
		t.Fatalf("server stopped serving after truncated header: %v", err)
	}
	if rh.Type != giop.MsgLocateReply {
		t.Fatalf("got %v, want LocateReply", rh.Type)
	}
	_ = c2.Close()
	o.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestChaosStalledDepositLeaseExpires stalls the client's control
// write partway through a deposit train, long past the server's
// deposit-lease TTL. The train rides the control stream, so the stall
// stalls the connection: the lease's expiry closes it, the attempt
// fails with COMM_FAILURE, and the retry policy completes the call on
// a fresh connection.
func TestChaosStalledDepositLeaseExpires(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(303).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultSlow, Nth: 2, Chunk: 32 << 10, Delay: 600 * time.Millisecond,
	})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true, DepositLeaseTTL: 30 * time.Millisecond,
			CallTimeout: 5 * time.Second},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second, Retry: quickRetry(4)})

	warm := pattern(8 << 10)
	if res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{warm}); err != nil || res.(uint32) != checksum(warm) {
		t.Fatalf("warm-up put: res=%v err=%v", res, err)
	}
	stalled := refConn(p.ref)
	data := pattern(256 << 10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
	if err != nil {
		t.Fatalf("invoke with stalled train: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch")
	}
	if got := p.server.Stats().LeaseExpiries.Load(); got < 1 {
		t.Fatalf("server LeaseExpiries = %d, want >= 1", got)
	}
	if got := p.client.Stats().Retries.Load(); got < 1 {
		t.Fatalf("client Retries = %d, want >= 1", got)
	}
	if stalled.healthy() || refConn(p.ref) == stalled {
		t.Fatal("the stalled connection was kept; the retry must redial")
	}
	if got := p.client.Stats().DataChanFallbacks.Load(); got != 0 {
		t.Fatalf("client DataChanFallbacks = %d for a stalled control stream, want 0", got)
	}
	if n := p.server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	waitFor(t, "the server to give back the stalled train's buffer", func() bool {
		return p.server.Pool().Stats().Outstanding == 0
	})
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestChaosServerRestart kills the server and brings a replacement up
// on the same endpoint while the client is already retrying: the
// retry/backoff loop must ride the restart gap.
func TestChaosServerRestart(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := &transport.TCP{}

	serverA, err := New(Options{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(serverA.Shutdown)
	ref, err := serverA.Activate("store", newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	client, err := New(Options{Transport: tr, CallTimeout: 2 * time.Second,
		Retry: RetryPolicy{MaxAttempts: 10, InitialBackoff: 5 * time.Millisecond,
			MaxBackoff: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Shutdown)
	cref, err := client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cref.Invoke(storeIface.Ops["put_std"], []any{[]byte{1}}); err != nil {
		t.Fatal(err)
	}

	addr := serverA.Addr()
	serverA.Shutdown()

	// Bring the replacement up while the client's retries are running.
	restarted := make(chan *ORB, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		b, err := New(Options{Transport: tr, ListenAddr: addr})
		if err != nil {
			t.Errorf("restart on %s: %v", addr, err)
			close(restarted)
			return
		}
		if _, err := b.Activate("store", newStoreServant()); err != nil {
			t.Error(err)
		}
		restarted <- b
	}()

	data := pattern(4096)
	res, _, err := cref.Invoke(storeIface.Ops["put_std"], []any{data})
	serverB, ok := <-restarted
	if !ok {
		t.FailNow()
	}
	if err != nil {
		t.Fatalf("invoke across restart: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatal("checksum mismatch across restart")
	}
	if got := client.Stats().Retries.Load(); got < 1 {
		t.Fatalf("Retries = %d, want >= 1", got)
	}
	if n := occupiedSlots(cref); n != 0 {
		t.Fatalf("reply slots leaked: %d", n)
	}
	client.Shutdown()
	serverB.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestChaosRandomSeeded runs a randomized (but reproducible) fault
// schedule: control-stream resets on reads and writes plus refused
// dials, under a burst of idempotent calls whose deposits ride the
// control stream. Every call must either succeed with the right
// answer or fail with a clean CORBA system exception — and nothing may
// leak afterwards. Set CHAOS_SEED to replay a schedule.
func TestChaosRandomSeeded(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos schedule seed %d (replay with CHAOS_SEED=%d)", seed, seed)

	before := runtime.NumGoroutine()
	inj := transport.NewFaultInjector(seed).
		Add(transport.Rule{Op: transport.OpRead, Class: transport.ClassControl,
			Kind: transport.FaultReset, Prob: 0.01, Count: 4}).
		Add(transport.Rule{Op: transport.OpWrite, Class: transport.ClassControl,
			Kind: transport.FaultReset, Prob: 0.005, Count: 3}).
		Add(transport.Rule{Op: transport.OpDial,
			Kind: transport.FaultRefuse, Prob: 0.02, Count: 2})
	p := chaosPair(t, &transport.InProc{}, inj,
		Options{ZeroCopy: true},
		Options{ZeroCopy: true, CallTimeout: 5 * time.Second, Retry: quickRetry(6)})

	data := pattern(8 << 10)
	want := checksum(data)
	succeeded, failed := 0, 0
	for i := 0; i < 250; i++ {
		res, _, err := p.ref.Invoke(storeIface.Ops["put"], []any{data})
		if err != nil {
			var se *SystemException
			if !errors.As(err, &se) {
				t.Fatalf("call %d: non-CORBA failure: %v", i, err)
			}
			failed++
			continue
		}
		if res.(uint32) != want {
			t.Fatalf("call %d: checksum mismatch", i)
		}
		succeeded++
	}
	t.Logf("%d succeeded, %d failed cleanly; %d faults fired, %d retries, %d fallbacks",
		succeeded, failed, inj.Fired(), p.client.Stats().Retries.Load(),
		p.client.Stats().DataChanFallbacks.Load())
	for _, line := range inj.Log() {
		t.Log("fault:", line)
	}
	if succeeded == 0 {
		t.Fatal("no call survived the schedule")
	}
	if n := occupiedSlots(p.ref); n != 0 {
		t.Fatalf("reply slots leaked: %d", n)
	}
	if n := p.server.leases.Pending(); n != 0 {
		t.Fatalf("server deposit leases outstanding: %d", n)
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}

// TestPendingTableSweptAfterTimeouts hammers a slow servant with calls
// that all time out and asserts the reply slots are all freed
// — the regression test for awaitReply leaving entries behind.
func TestPendingTableSweptAfterTimeouts(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := &transport.InProc{}
	p := newPair(t,
		Options{Transport: tr},
		Options{Transport: tr, CallTimeout: 20 * time.Millisecond})
	p.servant.slowDur = 150 * time.Millisecond

	const workers, perWorker = 50, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := p.ref.Invoke(storeIface.Ops["slow"], nil); err == nil {
					t.Error("slow call beat a 20ms timeout")
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := p.client.Stats().Timeouts.Load(); got != workers*perWorker {
		t.Fatalf("Timeouts = %d, want %d", got, workers*perWorker)
	}
	if n := occupiedSlots(p.ref); n != 0 {
		t.Fatalf("occupied reply slots after %d timed-out calls: %d", workers*perWorker, n)
	}
	p.client.Shutdown()
	p.server.Shutdown()
	assertNoGoroutineLeak(t, before)
}
