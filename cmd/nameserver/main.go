// Command nameserver runs a naming service: the bootstrap object
// examples and deployments use to discover each other.
//
//	nameserver -addr 127.0.0.1:2809 -ior-file /tmp/ns.ior -store ns.json
//
// With -store, bindings persist to a JSON file across restarts (see
// docs/NAMING.md). The listen address accepts scheme URIs uniformly
// with the rest of the toolchain (tcp://host:port, inproc://name); a
// bare host:port stays TCP. It serves until SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"zcorba/internal/naming"
	"zcorba/internal/orb"
	"zcorba/internal/trace"
	"zcorba/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:2809", "listen address (tcp:// and inproc:// scheme URIs accepted)")
	iorFile := flag.String("ior-file", "", "write the service IOR to this file")
	store := flag.String("store", "", "persist bindings to this JSON file across restarts")
	debugAddr := flag.String("debug", "", "serve /metrics, /spans, /debug/vars and /debug/pprof on this address")
	flag.Parse()

	var tracer *trace.Tracer
	if *debugAddr != "" {
		tracer = trace.New(0)
	}
	o, err := orb.New(orb.Options{Transport: &transport.TCP{}, ListenAddr: *addr, Tracer: tracer})
	if err != nil {
		fatal(err)
	}
	defer o.Shutdown()
	if *debugAddr != "" {
		x := &trace.Exporter{Tracer: tracer}
		o.RegisterMetrics(x)
		bound, err := x.Start(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer x.Close()
		fmt.Printf("nameserver: debug listener on http://%s/metrics\n", bound)
	}

	srv := &naming.Server{StorePath: *store}
	if err := srv.Load(); err != nil {
		fatal(err)
	}
	ref, err := o.Activate(naming.DefaultKey, srv)
	if err != nil {
		fatal(err)
	}
	iorStr := ref.String()

	fmt.Printf("nameserver: serving on %s\n", o.Addr())
	fmt.Printf("nameserver: corbaloc::%s/%s\n", o.Addr(), naming.DefaultKey)
	fmt.Println(iorStr)
	if *iorFile != "" {
		if err := os.WriteFile(*iorFile, []byte(iorStr), 0o644); err != nil {
			fatal(err)
		}
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("nameserver: %s, shutting down\n", <-ch)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nameserver:", err)
	os.Exit(1)
}
