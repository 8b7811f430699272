package orb

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"zcorba/internal/transport"
	"zcorba/internal/zcbuf"
)

// serverTiers enumerates the server connection tiers the matrix tests
// run under: the legacy goroutine-per-connection loop and the event
// engine. On platforms without epoll Engine:true degrades back to the
// legacy loop, so the matrix stays runnable everywhere and the Linux
// runs cover the engine.
var serverTiers = []struct {
	name   string
	engine bool
}{
	{"legacy", false},
	{"engine", true},
}

// engineSupported reports whether Engine:true actually selects the
// event tier on this platform.
func engineSupported() bool { return runtime.GOOS == "linux" }

// enginePair starts a server ORB with the event engine enabled and a
// plain TCP client.
func enginePair(t *testing.T, serverOpts Options) *pair {
	t.Helper()
	serverOpts.Transport = &transport.TCP{}
	serverOpts.Engine = true
	return newPair(t, serverOpts, Options{Transport: &transport.TCP{}})
}

// TestEngineRoundTrip drives the full request mix through an
// engine-tier server: standard marshaling, zero-copy deposits, user
// exceptions, oneways, and bulk request bodies all flow through the
// dispatcher pool's inline handleMessage path. Fragment trains, which
// only a GIOP 1.1 peer sends, are TestFragmentReassemblyWireLevel's.
func TestEngineRoundTrip(t *testing.T) {
	p := newPair(t,
		Options{Transport: &transport.TCP{}, Engine: true, ZeroCopy: true},
		Options{Transport: &transport.TCP{}, ZeroCopy: true})

	// A bulk body, which the engine's incremental reads assemble from
	// many nonblocking reads.
	data := pattern(1<<20 + 64<<10)
	res, _, err := p.ref.Invoke(storeIface.Ops["put_std"], []any{data})
	if err != nil {
		t.Fatalf("bulk put_std: %v", err)
	}
	if res.(uint32) != checksum(data) {
		t.Fatalf("bulk put_std: checksum mismatch")
	}

	buf := zcbuf.Wrap(pattern(32 << 10))
	res, _, err = p.ref.Invoke(storeIface.Ops["put"], []any{buf})
	if err != nil {
		t.Fatalf("zc put: %v", err)
	}
	if res.(uint32) != checksum(buf.Bytes()) {
		t.Fatalf("zc put: checksum mismatch")
	}

	if _, outs, err := p.ref.Invoke(storeIface.Ops["swap"], []any{"ev"}); err != nil {
		t.Fatalf("swap: %v", err)
	} else if outs[0].(string) != "ev/swapped" {
		t.Fatalf("swap: got %v", outs[0])
	}

	var ue *UserException
	if _, _, err := p.ref.Invoke(storeIface.Ops["fail"], nil); !errors.As(err, &ue) {
		t.Fatalf("fail: want UserException, got %v", err)
	}

	if _, _, err := p.ref.Invoke(storeIface.Ops["notify"], []any{uint32(7)}); err != nil {
		t.Fatalf("notify: %v", err)
	}
	select {
	case got := <-p.servant.notified:
		if got != 7 {
			t.Fatalf("notify: got %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oneway never reached the servant")
	}

	if engineSupported() {
		if n := p.server.Stats().EngineConns.Load(); n == 0 {
			t.Fatal("server served requests but no connection joined the engine")
		}
		if n := p.server.Stats().EngineWakeups.Load(); n == 0 {
			t.Fatal("engine served requests without recording a wakeup")
		}
	}
}

// TestEngineFaultyFallsBack proves the raw-socket discipline: a Faulty
// wrapper intercepts Read, so the engine must refuse the connection
// (raw reads would bypass injected faults) and the legacy tier must
// serve it.
func TestEngineFaultyFallsBack(t *testing.T) {
	inj := transport.NewFaultInjector(1)
	p := newPair(t,
		Options{Transport: &transport.Faulty{Inner: &transport.TCP{}, Inj: inj}, Engine: true},
		Options{Transport: &transport.TCP{}})
	if _, _, err := p.ref.Invoke(storeIface.Ops["swap"], []any{"x"}); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if n := p.server.Stats().EngineConns.Load(); n != 0 {
		t.Fatalf("Faulty-wrapped connection joined the engine (%d): raw reads bypass fault injection", n)
	}
}

// TestEngineLoadShed is the deterministic admission-control test: the
// server caps in-flight dispatch at 2, transport.Faulty stalls the two
// admitted replies on the control stream, and every request sent while
// the slots are held must come back TRANSIENT/shedMinor immediately —
// never hang, never queue. The stall rides the legacy tier (Faulty
// hides the raw socket), which shares dispatchRequest's admission path
// with the engine.
func TestEngineLoadShed(t *testing.T) {
	const cap = 2
	const extra = 3
	const stall = 1500 * time.Millisecond
	inj := transport.NewFaultInjector(7).Add(transport.Rule{
		Op: transport.OpWrite, Class: transport.ClassControl,
		Kind: transport.FaultStall, Nth: 1, Count: cap, Delay: stall,
	})
	// The client stripes every request onto its own connection, so the
	// shed replies do not queue on a shared conn's send mutex behind
	// the two stalled replies.
	p := newPair(t,
		Options{Transport: &transport.Faulty{Inner: &transport.TCP{}, Inj: inj},
			Engine: true, MaxInFlight: cap},
		Options{Transport: &transport.TCP{}, ConnsPerEndpoint: cap + extra})
	op := storeIface.Ops["swap"]

	var wg sync.WaitGroup
	slowErrs := make(chan error, cap)
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := p.ref.Invoke(op, []any{"held"})
			slowErrs <- err
		}()
	}
	// Wait until both admitted requests hold their slots AND their
	// replies sit inside the injected write stall (inj.Fired counts
	// each stall at write start) — from here until the stall expires,
	// every further request must shed.
	deadline := time.Now().Add(5 * time.Second)
	for p.server.Stats().InFlight.Load() < cap || inj.Fired() < cap {
		if time.Now().After(deadline) {
			t.Fatalf("slots never filled: in-flight %d, stalls fired %d",
				p.server.Stats().InFlight.Load(), inj.Fired())
		}
		time.Sleep(time.Millisecond)
	}

	shedErrs := make(chan error, extra)
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := p.ref.Invoke(op, []any{"shed-me"})
			shedErrs <- err
		}()
	}
	deadline = time.Now().Add(5 * time.Second)
	for p.server.Stats().ShedRequests.Load() < extra {
		if time.Now().After(deadline) {
			t.Fatalf("server shed only %d of %d over-cap requests while slots were held",
				p.server.Stats().ShedRequests.Load(), extra)
		}
		if p.server.Stats().InFlight.Load() != cap {
			t.Fatalf("a slot freed before all sheds: in-flight %d, shed %d",
				p.server.Stats().InFlight.Load(), p.server.Stats().ShedRequests.Load())
		}
		time.Sleep(time.Millisecond)
	}

	// Every party gets an answer — the admitted requests succeed, the
	// shed ones fail TRANSIENT/shedMinor; nothing hangs.
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(20 * time.Second):
		t.Fatal("requests still outstanding: a shed or stalled call hung")
	}
	close(slowErrs)
	for err := range slowErrs {
		if err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	close(shedErrs)
	for err := range shedErrs {
		if err == nil {
			t.Fatal("over-cap request succeeded instead of shedding")
		}
		var sys *SystemException
		if !errors.As(err, &sys) || sys.Name != "TRANSIENT" {
			t.Fatalf("shed reply: want TRANSIENT, got %v", err)
		}
		if sys.Minor != shedMinor {
			t.Fatalf("shed reply: want minor %#x, got %#x", shedMinor, sys.Minor)
		}
	}
	if got := p.server.Stats().ShedRequests.Load(); got != extra {
		t.Fatalf("ShedRequests = %d, want %d", got, extra)
	}
	// A dispatch slot is released after its reply is sent, so the last
	// client can return before the server has let go of the last slot.
	waitFor(t, "dispatch slots to drain", func() bool {
		return p.server.Stats().InFlight.Load() == 0
	})
}

// TestEngineAllocGate re-runs the ≤allocBudget gate with admission
// control armed (a high cap, so nothing sheds): the slot CAS on the
// non-shed path must stay allocation-free.
func TestEngineAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate skipped in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc gate skipped under -race: instrumentation skews the count")
	}
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: true, Engine: true, MaxInFlight: 1 << 20},
		Options{Transport: &transport.TCP{}, ZeroCopy: true})
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
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.ref.Invoke(op, []any{buf}); err != nil {
				b.Fatalf("invoke: %v", err)
			}
		}
	})
	if allocs := res.AllocsPerOp(); allocs > allocBudget {
		t.Fatalf("admission-controlled ZC invoke allocates %d objects/op, budget %d",
			allocs, allocBudget)
	} else {
		t.Logf("admission-controlled ZC invoke: %d allocs/op (budget %d)", allocs, allocBudget)
	}
	if p.server.Stats().ShedRequests.Load() != 0 {
		t.Fatal("alloc gate measured requests that were shed")
	}
}

// TestEngineAcceptBackpressure pins MaxConns at 1: a second client's
// connection must wait in the kernel backlog (AcceptPauses counts the
// stall) and be served only after the first client releases its slot.
func TestEngineAcceptBackpressure(t *testing.T) {
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) {
			server, err := New(Options{Transport: &transport.TCP{}, Engine: tier.engine, MaxConns: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(server.Shutdown)
			ref, err := server.Activate("store", newStoreServant())
			if err != nil {
				t.Fatal(err)
			}
			iorStr := ref.String()

			client1, err := New(Options{Transport: &transport.TCP{}})
			if err != nil {
				t.Fatal(err)
			}
			cref1, err := client1.StringToObject(iorStr)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := cref1.Invoke(storeIface.Ops["swap"], []any{"a"}); err != nil {
				t.Fatalf("client1: %v", err)
			}

			client2, err := New(Options{Transport: &transport.TCP{}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(client2.Shutdown)
			cref2, err := client2.StringToObject(iorStr)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, _, err := cref2.Invoke(storeIface.Ops["swap"], []any{"b"})
				done <- err
			}()

			// The accept loop must be parked on the cap, not serving
			// client2 (whose SYN sits in the backlog).
			deadline := time.Now().Add(5 * time.Second)
			for server.Stats().AcceptPauses.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("accept loop never paused at the MaxConns cap")
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-done:
				t.Fatalf("client2 served despite the cap (err=%v)", err)
			case <-time.After(100 * time.Millisecond):
			}

			// Releasing client1's connection frees the slot.
			client1.Shutdown()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("client2 after slot freed: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("client2 still blocked after the slot freed")
			}
		})
	}
}

// TestEngineConcurrentStress hammers the dispatcher pool with
// concurrent connect/invoke/close across striped and churning client
// connections; its value is highest under `make race`.
func TestEngineConcurrentStress(t *testing.T) {
	server, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true,
		Engine: true, MaxInFlight: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ref, err := server.Activate("store", newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	iorStr := ref.String()

	shared, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true, ConnsPerEndpoint: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shared.Shutdown)
	sref, err := shared.StringToObject(iorStr)
	if err != nil {
		t.Fatal(err)
	}

	iters := 40
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	// Striped invokers on the shared client.
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				data := pattern(256 + g*131 + i)
				res, _, err := sref.Invoke(storeIface.Ops["put"], []any{data})
				if err != nil {
					fail(fmt.Errorf("g%d put %d: %w", g, i, err))
					return
				}
				if res.(uint32) != checksum(data) {
					fail(fmt.Errorf("g%d put %d: checksum", g, i))
					return
				}
			}
		}(g)
	}
	// Churners: connect, invoke, close — the engine must register and
	// deregister fds under full dispatcher load.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters/4+1; i++ {
				client, err := New(Options{Transport: &transport.TCP{}})
				if err != nil {
					fail(fmt.Errorf("churn%d dial %d: %w", g, i, err))
					return
				}
				cref, err := client.StringToObject(iorStr)
				if err == nil {
					_, _, err = cref.Invoke(storeIface.Ops["swap"], []any{"churn"})
				}
				client.Shutdown()
				if err != nil {
					fail(fmt.Errorf("churn%d invoke %d: %w", g, i, err))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if engineSupported() {
		// Churned connections must all have deregistered; the shared
		// client's stripes remain.
		deadline := time.Now().Add(5 * time.Second)
		for server.Stats().EngineConns.Load() > 4 {
			if time.Now().After(deadline) {
				t.Fatalf("engine still holds %d conns after churn (want <= 4)",
					server.Stats().EngineConns.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(t, "dispatch slots to drain", func() bool {
		return server.Stats().InFlight.Load() == 0
	})
}
