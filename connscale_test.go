package bench

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/orb"
	"zcorba/internal/ttcp"
)

// connScaleTiers are the two server connection tiers the scale series
// compares: the goroutine-per-connection loop and the epoll-driven
// event engine (which degrades to the former off Linux).
var connScaleTiers = []struct {
	name   string
	engine bool
}{
	{"legacy", false},
	{"engine", true},
}

// TestConnScaleHerdHelper is not a test: it is the idle-connection
// herd of BenchmarkRequestRate_ConnScale, re-executed from this test
// binary so the herd's client-side fd table lives in its own process
// (10k in-process pairs would need twice the default fd budget). It
// dials BENCH_HERD_N raw TCP connections that never speak, reports
// readiness, and holds them until the parent closes its stdin.
func TestConnScaleHerdHelper(t *testing.T) {
	if os.Getenv("BENCH_HERD_ADDR") == "" {
		t.Skip("cross-process helper entry point; spawned by BenchmarkRequestRate_ConnScale")
	}
	n, err := strconv.Atoi(os.Getenv("BENCH_HERD_N"))
	if err != nil || n <= 0 {
		fmt.Fprintln(os.Stderr, "herd helper: bad BENCH_HERD_N")
		os.Exit(1)
	}
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", os.Getenv("BENCH_HERD_ADDR"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "herd helper: dial %d: %v\n", i, err)
			os.Exit(1)
		}
		conns = append(conns, c)
	}
	if err := os.WriteFile(os.Getenv("BENCH_HERD_STATUS"), []byte("ready"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "herd helper: status:", err)
		os.Exit(1)
	}
	_, _ = io.Copy(io.Discard, os.Stdin) // parent's stdin close = release
}

// spawnIdleHerd parks n idle TCP connections against addr from a child
// process and returns after they are all dialed; cleanup releases them.
func spawnIdleHerd(b *testing.B, addr string, n int) {
	b.Helper()
	status := filepath.Join(b.TempDir(), "status")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestConnScaleHerdHelper$")
	cmd.Env = append(os.Environ(),
		"BENCH_HERD_ADDR="+addr,
		"BENCH_HERD_N="+strconv.Itoa(n),
		"BENCH_HERD_STATUS="+status)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		b.Fatalf("herd stdin: %v", err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatalf("spawn herd: %v", err)
	}
	b.Cleanup(func() {
		_ = stdin.Close()
		_, _ = cmd.Process.Wait()
	})
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if s, err := os.ReadFile(status); err == nil && string(s) == "ready" {
			return
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			b.Fatal("idle herd never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// benchConnScaleIdle measures the request rate of one active client
// while idleConns parked connections weigh on the server tier: the
// engine should hold them as registered fds, the legacy tier as parked
// goroutines. The measuring client dials after the herd, so its first
// reply proves the accept loop has absorbed every idle connection.
func benchConnScaleIdle(b *testing.B, engine bool, idleConns int) {
	sink, err := ttcp.NewCorbaSinkConfig(ttcp.SinkConfig{
		Transport: zcStack(), Engine: engine,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	spawnIdleHerd(b, sink.ORB.Addr(), idleConns)
	// The herd reports ready when its dials complete, which only proves
	// the kernel finished the handshakes; wait for the accept loop to
	// absorb (and the engine to register) every idle connection so none
	// of that work lands in the timed loop.
	deadline := time.Now().Add(2 * time.Minute)
	for sink.ORB.ServerConns() < idleConns {
		if time.Now().After(deadline) {
			b.Fatalf("server absorbed only %d of %d idle conns", sink.ORB.ServerConns(), idleConns)
		}
		time.Sleep(10 * time.Millisecond)
	}
	client, err := orb.New(orb.Options{Transport: zcStack()})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := ttcp.CorbaSendWindow(client, sink.IOR, 4<<10, b.N, 8, false); err != nil {
		b.Fatal(err)
	}
	// The deferred shutdowns tear down every idle connection: not part
	// of the request rate.
	b.StopTimer()
}

// benchConnScaleActive measures the request rate with every one of
// conns connections active: the client stripes invocations across
// ConnsPerEndpoint connections and worker goroutines keep them all
// carrying traffic.
func benchConnScaleActive(b *testing.B, engine bool, conns int) {
	sink, err := ttcp.NewCorbaSinkConfig(ttcp.SinkConfig{
		Transport: zcStack(), Engine: engine,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	client, err := orb.New(orb.Options{Transport: zcStack(), ConnsPerEndpoint: conns})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Shutdown()
	ref, err := client.StringToObject(sink.IOR)
	if err != nil {
		b.Fatal(err)
	}
	stub := media.Media_StoreStub{Ref: ref}
	payload := make([]byte, 4<<10)
	// Cover every stripe before the timer so the measured loop sees
	// established connections, not dial latency.
	for i := 0; i < conns; i++ {
		if _, err := stub.Put(payload); err != nil {
			b.Fatal(err)
		}
	}
	const workers = 64
	b.SetBytes(4 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for next.Add(1) <= int64(b.N) {
				if _, err := stub.Put(payload); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	// Tearing down conns connections is not part of the request rate.
	b.StopTimer()
}

// BenchmarkRequestRate_ConnScale grows the request-rate series along a
// connection-count axis: request rate with 1k and 10k idle connections
// parked on the server, and with 1k connections all actively carrying
// requests — for both server tiers. The BENCH_orb.json rows this emits
// are the scale record docs/PERF.md points at.
func BenchmarkRequestRate_ConnScale(b *testing.B) {
	for _, tier := range connScaleTiers {
		b.Run(tier.name, func(b *testing.B) {
			b.Run("idle1k", func(b *testing.B) { benchConnScaleIdle(b, tier.engine, 1000) })
			if !testing.Short() {
				b.Run("idle10k", func(b *testing.B) { benchConnScaleIdle(b, tier.engine, 10000) })
			}
			b.Run("active1k", func(b *testing.B) { benchConnScaleActive(b, tier.engine, 1000) })
		})
	}
}
