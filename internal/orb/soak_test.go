package orb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"zcorba/internal/transport"
)

// TestSoakMixedWorkload drives a small cluster with a mixed workload
// (ZC bulk, standard bulk, small control calls, oneways, failures) and
// verifies the ORBs shut down without leaking goroutines. It runs once
// per server tier: the legacy goroutine-per-connection loop and the
// event-driven engine must be workload-equivalent.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) { soakMixedWorkload(t, tier.engine) })
	}
}

func soakMixedWorkload(t *testing.T, engine bool) {
	before := runtime.NumGoroutine()

	func() {
		server, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		sv := newStoreServant()
		// Drain oneway notifications for the server's whole lifetime:
		// the engine tier dispatches inline from a bounded worker pool,
		// so a servant blocking on a full channel would stall every
		// dispatcher (the blocking-servant hazard docs/PERF.md calls
		// out). The drainer outlives Shutdown (LIFO defers) so even a
		// late oneway finds a consumer.
		drainStop := make(chan struct{})
		drainDone := make(chan struct{})
		go func() {
			defer close(drainDone)
			for {
				select {
				case <-sv.notified:
				case <-drainStop:
					return
				}
			}
		}()
		defer func() { close(drainStop); <-drainDone }()
		defer server.Shutdown()
		ref, err := server.Activate("store", sv)
		if err != nil {
			t.Fatal(err)
		}

		const clients = 4
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				client, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: ci%2 == 0})
				if err != nil {
					errs <- err
					return
				}
				defer client.Shutdown()
				cref, err := client.StringToObject(ref.String())
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < 40; i++ {
					switch i % 5 {
					case 0: // ZC bulk (or fallback on odd clients)
						data := pattern(4096 + i*997)
						res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
						if err != nil {
							errs <- fmt.Errorf("c%d put %d: %w", ci, i, err)
							return
						}
						if res.(uint32) != checksum(data) {
							errs <- fmt.Errorf("c%d put %d: checksum", ci, i)
							return
						}
					case 1: // standard bulk
						data := pattern(2048 + i*31)
						if _, _, err := cref.Invoke(storeIface.Ops["put_std"], []any{data}); err != nil {
							errs <- fmt.Errorf("c%d put_std %d: %w", ci, i, err)
							return
						}
					case 2: // small control call
						if _, _, err := cref.Invoke(storeIface.Ops["swap"], []any{"x"}); err != nil {
							errs <- fmt.Errorf("c%d swap %d: %w", ci, i, err)
							return
						}
					case 3: // oneway
						if _, _, err := cref.Invoke(storeIface.Ops["notify"], []any{uint32(i)}); err != nil {
							errs <- fmt.Errorf("c%d notify %d: %w", ci, i, err)
							return
						}
					case 4: // exercised failure path
						if _, _, err := cref.Invoke(storeIface.Ops["fail"], nil); err == nil {
							errs <- fmt.Errorf("c%d fail %d: no error", ci, i)
							return
						}
					}
				}
			}(ci)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if got := server.Stats().RequestsServed.Load(); got < int64(clients*32) {
			t.Fatalf("served only %d requests", got)
		}
	}()

	// All ORBs are shut down; goroutines must drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestManyConnectionsOneServer exercises the connection cache and the
// data-channel registry with many distinct client ORBs, against both
// server tiers.
func TestManyConnectionsOneServer(t *testing.T) {
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) { manyConnectionsOneServer(t, tier.engine) })
	}
}

func manyConnectionsOneServer(t *testing.T, engine bool) {
	server, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ref, err := server.Activate("store", newStoreServant())
	if err != nil {
		t.Fatal(err)
	}
	iorStr := ref.String()
	for i := 0; i < 12; i++ {
		client, err := New(Options{Transport: &transport.TCP{}, ZeroCopy: true})
		if err != nil {
			t.Fatal(err)
		}
		cref, err := client.StringToObject(iorStr)
		if err != nil {
			t.Fatal(err)
		}
		data := pattern(8192)
		res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if res.(uint32) != checksum(data) {
			t.Fatalf("client %d: checksum", i)
		}
		client.Shutdown()
	}
}

// TestConcurrentInvokersSharedConn stresses the connection's reply-slot
// array and the pooled reply machinery: many goroutines share one
// client ORB (and thus one control connection), mixing synchronous
// invokes, fire-a-window asynchronous calls, and pipelined submission.
// Its value is highest under `make race`.
func TestConcurrentInvokersSharedConn(t *testing.T) {
	for _, tier := range serverTiers {
		t.Run(tier.name, func(t *testing.T) { concurrentInvokersSharedConn(t, tier.engine) })
	}
}

func concurrentInvokersSharedConn(t *testing.T, engine bool) {
	p := newPair(t,
		Options{Transport: &transport.TCP{}, ZeroCopy: true, Engine: engine},
		Options{Transport: &transport.TCP{}, ZeroCopy: true})
	op := storeIface.Ops["put"]
	const goroutines = 9
	const iters = 48

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			switch g % 3 {
			case 0: // synchronous invokers
				for i := 0; i < iters; i++ {
					data := pattern(512 + g*97 + i)
					res, _, err := p.ref.Invoke(op, []any{data})
					if err != nil {
						fail(fmt.Errorf("g%d sync %d: %w", g, i, err))
						return
					}
					if res.(uint32) != checksum(data) {
						fail(fmt.Errorf("g%d sync %d: checksum", g, i))
						return
					}
				}
			case 1: // async window: fire a burst, then collect in order
				const burst = 4
				for i := 0; i < iters; i += burst {
					var calls [burst]*Call
					var sums [burst]uint32
					for j := range calls {
						data := pattern(256 + g*13 + i + j)
						sums[j] = checksum(data)
						calls[j] = p.ref.InvokeAsync(op, []any{data})
					}
					for j, c := range calls {
						res, _, err := c.Wait()
						if err != nil {
							fail(fmt.Errorf("g%d async %d+%d: %w", g, i, j, err))
							return
						}
						if res.(uint32) != sums[j] {
							fail(fmt.Errorf("g%d async %d+%d: checksum", g, i, j))
							return
						}
					}
				}
			case 2: // pipelined submission (single-goroutine pipeline)
				pl := p.ref.Pipeline(op, 8)
				for i := 0; i < iters; i++ {
					data := pattern(1024 + g*7 + i)
					want := checksum(data)
					i := i
					err := pl.Submit([]any{data}, func(result any, _ []any, err error) {
						if err != nil {
							fail(fmt.Errorf("g%d pipe %d: %w", g, i, err))
							return
						}
						if result.(uint32) != want {
							fail(fmt.Errorf("g%d pipe %d: checksum", g, i))
						}
					})
					if err != nil {
						fail(fmt.Errorf("g%d pipe submit %d: %w", g, i, err))
						return
					}
				}
				if err := pl.Flush(); err != nil {
					fail(fmt.Errorf("g%d pipe flush: %w", g, err))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.client.Stats().RequestsSent.Load(); got < goroutines*iters {
		t.Fatalf("sent only %d requests, want >= %d", got, goroutines*iters)
	}
}
