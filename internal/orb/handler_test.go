package orb

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// goroutineServant records which goroutines ran its calls.
type goroutineServant struct {
	*storeServant
	mu  sync.Mutex
	ids map[string]bool
}

func (s *goroutineServant) Invoke(op string, args []any) (any, []any, error) {
	var buf [64]byte
	id := string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
	s.mu.Lock()
	s.ids[id] = true
	s.mu.Unlock()
	return s.storeServant.Invoke(op, args)
}

func (s *goroutineServant) distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.ids)
	clear(s.ids)
	return n
}

// TestLegacyHandlersParked: the goroutine-per-connection tier runs
// requests on parked handler goroutines instead of starting one per
// request. Sequential calls on one connection start none once warm and
// run on the same few goroutines; a burst of concurrent calls still
// runs concurrently and leaves at most maxIdleHandlers parked; Shutdown
// takes every handler with it.
func TestLegacyHandlersParked(t *testing.T) {
	before := runtime.NumGoroutine()
	p := tcpPair(t, true)
	// Set before Activate, whose lock the handlers' servant lookup
	// takes after it: that orders the write before their reads.
	p.servant.slowDur = 100 * time.Millisecond
	gs := &goroutineServant{storeServant: p.servant, ids: map[string]bool{}}
	ref, err := p.server.Activate("handlers", gs)
	if err != nil {
		t.Fatal(err)
	}
	cref, err := p.client.StringToObject(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(4096)
	want := checksum(data)
	put := func() {
		t.Helper()
		res, _, err := cref.Invoke(storeIface.Ops["put"], []any{data})
		if err != nil {
			t.Fatal(err)
		}
		if res.(uint32) != want {
			t.Fatalf("checksum: got %v want %d", res, want)
		}
	}
	for i := 0; i < 64; i++ {
		put()
	}
	warm := runtime.NumGoroutine()
	gs.distinct()

	for i := 0; i < 1000; i++ {
		put()
	}
	// A request that arrives while the last one's handler is between
	// its reply and its park finds no handler waiting and gets a new
	// one, which then parks too. A sequential caller can meet that only
	// when the handler is descheduled in that window, so allow a few.
	const spares = 3
	if n := gs.distinct(); n > 1+spares {
		t.Fatalf("1000 sequential calls ran on %d goroutines, want at most %d", n, 1+spares)
	}
	if g := runtime.NumGoroutine(); g < warm || g > warm+spares {
		t.Fatalf("1000 sequential calls: %d goroutines, %d after warm-up", g, warm)
	}

	// A burst: every call holds a handler at once, then all finish.
	const burst = 64
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	start := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := cref.Invoke(storeIface.Ops["slow"], nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := gs.distinct(); n < burst {
		t.Fatalf("%d concurrent calls ran on %d goroutines", burst, n)
	}
	if d := time.Since(start); d > burst*p.servant.slowDur/4 {
		t.Fatalf("%d pipelined calls took %v: they did not run concurrently", burst, d)
	}
	waitFor(t, "surplus handlers to exit", func() bool {
		return p.server.Stats().InFlight.Load() == 0 &&
			p.server.idleHandlers.Load() <= maxIdleHandlers &&
			runtime.NumGoroutine() <= warm+spares+maxIdleHandlers
	})

	p.client.Shutdown()
	p.server.Shutdown()
	if n := p.server.idleHandlers.Load(); n != 0 {
		t.Fatalf("%d handlers still parked after Shutdown", n)
	}
	assertNoGoroutineLeak(t, before)
}
