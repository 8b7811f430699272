// Command ttcp is the benchmark driver of §5.1: a TCP/CORBA throughput
// tester with the paper's four variants.
//
// Socket mode (raw TTCP):
//
//	ttcp -server -addr :5001                 # receiver
//	ttcp -addr host:5001 -size 65536 -blocks 512
//
// CORBA mode (the Store service):
//
//	ttcp -server -corba -ior-file /tmp/sink.ior
//	ttcp -corba -ior "$(cat /tmp/sink.ior)" -size 65536 -blocks 512
//
// Shared-memory mode (docs/SHM.md) keeps control traffic on TCP but
// deposits payloads into a ring both processes map:
//
//	ttcp -server -corba -shm -ior-file /tmp/sink.ior
//	ttcp -corba -shm -ior "$(cat /tmp/sink.ior)" -size 1M -blocks 64
//
// Flags -stack copying emulates the standard (copying) kernel stack;
// -zerocopy selects the zero-copy ORB path (direct deposit) in CORBA
// mode (-shm implies it). Addresses everywhere accept scheme URIs
// (tcp://, inproc://, shm://); a bare host:port stays TCP. A sweep
// over the paper's block sizes runs with -sweep, and
// -window N pipelines up to N CORBA requests in flight; every summary
// line reports requests/s alongside Mbit/s. -segs N (both sides) runs
// the gathered-deposit tier: each request is an ordinary call with N
// ZC buffer arguments, which travel as one deposit train (a single
// vectored write per train). -chaos injects a seeded
// transport fault schedule (see -chaos-seed) into the CORBA client and
// enables the retry policy, reporting fired faults and recoveries.
//
// Event fan-out mode (docs/EVENTS.md) benchmarks pub/sub instead of
// point-to-point: one channel, N co-located subscribers, -blocks
// events of -size bytes. With -events-bcast the channel is backed by
// the ZC-SHM-BCAST broadcast ring, so subscribers map the segment and
// the publish cost stays flat in N:
//
//	ttcp -events 16 -size 4096 -blocks 2048                # per-copy fan-out
//	ttcp -events 16 -events-bcast -size 4096 -blocks 2048  # shared ring
//
// The CORBA server can swap its connection tier with -engine
// (docs/PERF.md, Linux): idle connections are held as epoll
// registrations instead of parked goroutines, -max-inflight sheds
// excess requests with TRANSIENT, and -max-conns pauses the accept loop
// at a connection ceiling.
//
// Observability (docs/OBSERVABILITY.md): -trace FILE records every
// CORBA-mode span (client and sink side alike, correlated by trace ID)
// and dumps them as a replayable NDJSON span log on exit; -debug ADDR
// serves Prometheus metrics, the live span log, expvar, and pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"

	"zcorba/internal/orb"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
	"zcorba/internal/ttcp"
)

func main() {
	server := flag.Bool("server", false, "run the receiving side")
	corba := flag.Bool("corba", false, "benchmark through the CORBA ORB instead of raw sockets")
	zerocopy := flag.Bool("zerocopy", false, "CORBA mode: use the zero-copy ORB (direct deposit)")
	shm := flag.Bool("shm", false, "CORBA mode: shared-memory data plane for co-located endpoints (implies -zerocopy)")
	shmPath := flag.String("shm-path", "", "CORBA server: shm data-plane socket path (default under the temp dir)")
	stack := flag.String("stack", "plain", "TCP stack model: plain (zero user-space copies) or copying (standard-stack emulation)")
	addr := flag.String("addr", "127.0.0.1:5001", "socket mode: listen/connect address (tcp://, inproc://, shm:// accepted)")
	iorStr := flag.String("ior", "", "CORBA client: stringified IOR of the sink")
	iorFile := flag.String("ior-file", "", "CORBA server: write the sink IOR here (default stdout)")
	size := flag.Int("size", 64<<10, "block size in bytes")
	blocks := flag.Int("blocks", 256, "number of blocks")
	sweep := flag.Bool("sweep", false, "client: sweep the paper's block sizes 4K..16M")
	target := flag.Int64("bytes", 32<<20, "sweep: bytes per point")
	window := flag.Int("window", 1, "CORBA client: pipelined in-flight requests (1 = synchronous)")
	segs := flag.Int("segs", 0, "CORBA mode: send this many ZC buffers per request, gathered into one deposit train; both sides need the same value (implies -zerocopy)")
	chaos := flag.Bool("chaos", false, "CORBA client: inject seeded transport faults and enable the retry policy")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault schedule seed for -chaos")
	eventsN := flag.Int("events", 0, "fan-out mode: run a pub/sub benchmark with this many co-located subscribers")
	eventsBcast := flag.Bool("events-bcast", false, "fan-out mode: back the channel with the ZC-SHM-BCAST broadcast ring")
	engine := flag.Bool("engine", false, "CORBA server: event-driven connection engine (Linux; idle conns cost an epoll registration, not a goroutine)")
	maxInFlight := flag.Int("max-inflight", 0, "CORBA server: admission cap; requests beyond it are shed with TRANSIENT (0 = unlimited)")
	maxConns := flag.Int("max-conns", 0, "CORBA server: pause accepting beyond this many connections (0 = unlimited)")
	traceFile := flag.String("trace", "", "CORBA mode: write a replayable span log (NDJSON) to this file on exit")
	debugAddr := flag.String("debug", "", "serve /metrics, /spans, /debug/vars and /debug/pprof on this address")
	flag.Parse()
	if *shm || *segs > 0 {
		*zerocopy = true // these tiers are the zero-copy path by construction
	}

	var tracer *trace.Tracer
	switch {
	case *traceFile != "":
		// A dumped span log should cover the whole run, not just the
		// default ring's tail: size the slab for spans-per-block times a
		// full sweep, bounded sanely.
		capacity := *blocks * 8 * 22 // sweep() runs up to 22 points
		if capacity > 1<<20 {
			capacity = 1 << 20
		}
		tracer = trace.New(capacity)
	case *debugAddr != "":
		tracer = trace.New(0)
	}

	var tr transport.Transport
	switch *stack {
	case "plain":
		tr = &transport.TCP{}
	case "copying":
		tr = &transport.Copying{Inner: &transport.TCP{}, SendCopies: 1, RecvCopies: 1}
	default:
		fatal(fmt.Errorf("unknown -stack %q", *stack))
	}

	switch {
	case *eventsN > 0:
		if err := runEventsFanout(tr, *eventsN, *eventsBcast, *size, *blocks); err != nil {
			fatal(err)
		}

	case *server && !*corba:
		str, saddr := resolveAddr(tr, *addr)
		sink, err := ttcp.NewSocketSink(str, saddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ttcp: socket sink listening on %s (stack=%s)\n", sink.Addr(), str.Name())
		waitInterrupt()
		_ = sink.Close()

	case *server && *corba:
		dataAddr := ""
		if *shm {
			p := *shmPath
			if p == "" {
				p = filepath.Join(os.TempDir(), fmt.Sprintf("ttcp-shm-%d.sock", os.Getpid()))
			}
			dataAddr = "shm://" + p
		}
		sink, err := ttcp.NewCorbaSinkConfig(ttcp.SinkConfig{
			Transport:   tr,
			ZeroCopy:    *zerocopy,
			Tracer:      tracer,
			DataAddr:    dataAddr,
			Engine:      *engine,
			MaxInFlight: *maxInFlight,
			MaxConns:    *maxConns,
			GatherSegs:  *segs,
		})
		if err != nil {
			fatal(err)
		}
		// With -segs the published IOR is the gather sink's, so a
		// -segs client pointed at it sends zputv trains directly.
		ior := sink.IOR
		if *segs > 0 {
			ior = sink.GatherIOR
		}
		stopDebug := startDebug(*debugAddr, tracer, sink.ORB)
		defer stopDebug()
		defer dumpTrace(*traceFile, tracer)
		if *iorFile != "" {
			if err := os.WriteFile(*iorFile, []byte(ior), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("ttcp: CORBA sink up (zerocopy=%v shm=%v engine=%v segs=%d), IOR written to %s\n", *zerocopy, *shm, *engine, *segs, *iorFile)
		} else {
			fmt.Println(ior)
		}
		waitInterrupt()
		printSpeculation("sink", sink.ORB.Stats())
		sink.Close()

	case !*server && !*corba:
		str, saddr := resolveAddr(tr, *addr)
		for _, s := range sizes(*sweep, *size) {
			b := *blocks
			if *sweep {
				b = ttcp.BlocksFor(s, *target, 4)
			}
			res, err := ttcp.SocketSend(str, saddr, s, b)
			if err != nil {
				fatal(err)
			}
			fmt.Println(res)
		}

	default: // CORBA client
		if *iorStr == "" {
			fatal(fmt.Errorf("CORBA client needs -ior"))
		}
		opts := orb.Options{Transport: tr, ZeroCopy: *zerocopy, Tracer: tracer}
		var inj *transport.FaultInjector
		if *chaos {
			opts.Transport, inj = ttcp.Chaos(tr, *chaosSeed)
			opts.Retry = ttcp.ChaosRetry()
			fmt.Printf("ttcp: chaos on, seed %d\n", *chaosSeed)
		}
		client, err := orb.New(opts)
		if err != nil {
			fatal(err)
		}
		defer client.Shutdown()
		stopDebug := startDebug(*debugAddr, tracer, client)
		defer stopDebug()
		defer dumpTrace(*traceFile, tracer)
		for _, s := range sizes(*sweep, *size) {
			b := *blocks
			if *sweep {
				b = ttcp.BlocksFor(s, *target, 4)
			}
			var res ttcp.Result
			var err error
			if *segs > 0 {
				trains := b / *segs
				if trains < 1 {
					trains = 1
				}
				res, err = ttcp.CorbaSendGather(client, *iorStr, s, trains, *segs, *window)
			} else {
				mode := ttcp.ModeCorba
				switch {
				case *shm:
					mode = ttcp.ModeShmCorba
				case *zerocopy:
					mode = ttcp.ModeZCCorba
				}
				res, err = ttcp.CorbaSendWindowMode(client, *iorStr, s, b, *window, *zerocopy, mode)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Println(res)
		}
		st := client.Stats()
		fmt.Printf("ttcp: client payload copies=%d (%d bytes), deposits=%d (%d bytes), fallbacks=%d\n",
			st.PayloadCopies.Load(), st.PayloadCopyBytes.Load(),
			st.DepositsSent.Load(), st.DepositBytesSent.Load(), st.ZCFallbacks.Load())
		printSpeculation("client", st)
		if *segs > 0 {
			fmt.Printf("ttcp: gather trains=%d (%d segments)\n",
				st.GatherDeposits.Load(), st.GatherSegments.Load())
		}
		if *shm {
			fmt.Printf("ttcp: shm deposits=%d (%d bytes), claims=%d, misses=%d\n",
				st.ShmDeposits.Load(), st.ShmDepositBytes.Load(),
				st.ShmClaims.Load(), st.ShmMisses.Load())
		}
		if inj != nil {
			fmt.Printf("ttcp: chaos faults fired=%d, retries=%d, timeouts=%d, data-chan fallbacks=%d\n",
				inj.Fired(), st.Retries.Load(), st.Timeouts.Load(), st.DataChanFallbacks.Load())
			for _, line := range inj.Log() {
				fmt.Println("ttcp: fault:", line)
			}
		}
	}
}

// printSpeculation reports how an ORB's speculative control reads
// fared: hits took a whole message in one read, misses moved bytes.
func printSpeculation(side string, st *orb.Stats) {
	fmt.Printf("ttcp: %s speculation hits=%d misses=%d\n",
		side, st.SpeculationHits.Load(), st.SpeculationMisses.Load())
}

// startDebug serves the observability surface when addr is non-empty,
// returning a stop function (a no-op otherwise).
func startDebug(addr string, tracer *trace.Tracer, o *orb.ORB) func() {
	if addr == "" {
		return func() {}
	}
	x := &trace.Exporter{Tracer: tracer}
	o.RegisterMetrics(x)
	bound, err := x.Start(addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ttcp: debug listener on http://%s/metrics\n", bound)
	return func() { _ = x.Close() }
}

// dumpTrace writes the retained spans as a replayable NDJSON span log.
func dumpTrace(path string, tracer *trace.Tracer) {
	if path == "" || tracer == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	spans := tracer.Spans()
	if err := trace.WriteSpanLog(f, spans); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("ttcp: %d spans written to %s\n", len(spans), path)
}

// resolveAddr honors scheme-qualified socket-mode addresses: the
// scheme selects the transport, the rest is what it listens on or
// dials. A bare address keeps the -stack transport.
func resolveAddr(tr transport.Transport, addr string) (transport.Transport, string) {
	scheme, rest := transport.SplitScheme(addr)
	if scheme == "" {
		return tr, addr
	}
	t, _, err := transport.FromAddr(addr, nil)
	if err != nil {
		fatal(err)
	}
	return t, rest
}

func sizes(sweep bool, one int) []int {
	if sweep {
		return ttcp.PaperSweep()
	}
	return []int{one}
}

func waitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ttcp:", err)
	os.Exit(1)
}
