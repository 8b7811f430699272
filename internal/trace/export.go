package trace

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
)

// Exporter serves the observability surface over HTTP on an opt-in
// debug listener:
//
//	/metrics     Prometheus text format: the tracer's histograms,
//	             span-kind counters, and any registered counters
//	/spans       the retained span slab as a replayable span log
//	/debug/vars  expvar (includes memstats)
//	/debug/pprof the standard pprof handlers
//
// Counters are registered as pull functions, so the exporter reads
// live atomics at scrape time and the instrumented code never pushes.
type Exporter struct {
	// Tracer supplies histograms and spans; may be nil (counters only).
	Tracer *Tracer
	// Namespace prefixes every metric name; default "zcorba".
	Namespace string

	mu       sync.Mutex
	counters []promCounter
	srv      *http.Server
	lis      net.Listener
}

type promCounter struct {
	name, help string
	fn         func() int64
	gauge      bool
}

// AddCounter registers a pull-style counter exported as
// <namespace>_<name>. fn is called at scrape time.
func (x *Exporter) AddCounter(name, help string, fn func() int64) {
	x.mu.Lock()
	x.counters = append(x.counters, promCounter{name: name, help: help, fn: fn})
	x.mu.Unlock()
}

// AddGauge registers a pull-style gauge (a level that can go down —
// connection counts, queue depths) exported as <namespace>_<name>.
func (x *Exporter) AddGauge(name, help string, fn func() int64) {
	x.mu.Lock()
	x.counters = append(x.counters, promCounter{name: name, help: help, fn: fn, gauge: true})
	x.mu.Unlock()
}

func (x *Exporter) ns() string {
	if x.Namespace == "" {
		return "zcorba"
	}
	return x.Namespace
}

// Handler returns the exporter's mux (for embedding into an existing
// server).
func (x *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", x.serveMetrics)
	mux.HandleFunc("/spans", x.serveSpans)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds addr and serves the debug surface until Close. It
// returns the bound address (useful with ":0").
func (x *Exporter) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("trace: debug listener: %w", err)
	}
	srv := &http.Server{Handler: x.Handler()}
	x.mu.Lock()
	x.lis, x.srv = lis, srv
	x.mu.Unlock()
	go func() { _ = srv.Serve(lis) }()
	return lis.Addr().String(), nil
}

// Close stops the debug listener.
func (x *Exporter) Close() error {
	x.mu.Lock()
	srv := x.srv
	x.srv, x.lis = nil, nil
	x.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (x *Exporter) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = x.WriteProm(w)
}

func (x *Exporter) serveSpans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = WriteSpanLog(w, x.Tracer.Spans())
}

// WriteProm emits every metric in Prometheus text exposition format.
func (x *Exporter) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	ns := x.ns()

	x.mu.Lock()
	counters := append([]promCounter(nil), x.counters...)
	x.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	for _, c := range counters {
		typ := "counter"
		if c.gauge {
			typ = "gauge"
		}
		fmt.Fprintf(bw, "# HELP %s_%s %s\n", ns, c.name, c.help)
		fmt.Fprintf(bw, "# TYPE %s_%s %s\n", ns, c.name, typ)
		fmt.Fprintf(bw, "%s_%s %d\n", ns, c.name, c.fn())
	}

	if t := x.Tracer; t != nil {
		fmt.Fprintf(bw, "# HELP %s_spans_total Spans recorded, by kind.\n", ns)
		fmt.Fprintf(bw, "# TYPE %s_spans_total counter\n", ns)
		for k := Kind(0); k < numKinds; k++ {
			fmt.Fprintf(bw, "%s_spans_total{kind=%q} %d\n", ns, k.String(), t.SpanCount(k))
		}
		writePromHist(bw, ns+"_invoke_latency_ns",
			"Whole-invocation client latency (ns).", t.InvokeLatencyNS.Snapshot())
		writePromHist(bw, ns+"_dispatch_latency_ns",
			"Server-side servant execution time (ns).", t.DispatchLatencyNS.Snapshot())
		writePromHist(bw, ns+"_deposit_bytes",
			"Direct-deposit transfer sizes (bytes).", t.DepositBytes.Snapshot())
		writePromHist(bw, ns+"_retry_backoff_ns",
			"Backoff pauses before retries (ns).", t.RetryBackoffNS.Snapshot())
		writePromHist(bw, ns+"_frame_latency_ns",
			"Farm frame round-trip latency (ns).", t.FrameLatencyNS.Snapshot())
	}
	return bw.Flush()
}

// writePromHist renders one histogram: cumulative buckets up to the
// highest occupied octave, then +Inf, _sum and _count.
func writePromHist(w io.Writer, name, help string, s HistSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	top := 0
	for i, c := range s.Counts {
		if c > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpper(i), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}

// spanJSON is the span-log wire form: one JSON object per line, hex
// IDs so logs from both sides of a connection correlate by eye.
type spanJSON struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	Op      string `json:"op,omitempty"`
	Start   int64  `json:"start_ns"`
	Dur     int64  `json:"dur_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Attempt uint16 `json:"attempt,omitempty"`
	Err     bool   `json:"err,omitempty"`
}

// WriteSpanLog writes spans as newline-delimited JSON — the replayable
// span log format dumped by `ttcp -trace` and served on /spans.
// ReadSpanLog inverts it losslessly.
func WriteSpanLog(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		j := spanJSON{
			Trace: fmt.Sprintf("%016x", uint64(s.Trace)),
			Span:  fmt.Sprintf("%016x", uint64(s.Span)),
			Kind:  s.Kind.String(),
			Op:    s.Op, Start: s.Start, Dur: s.Dur,
			Bytes: s.Bytes, Attempt: s.Attempt, Err: s.Err,
		}
		if s.Parent != 0 {
			j.Parent = fmt.Sprintf("%016x", uint64(s.Parent))
		}
		if err := enc.Encode(&j); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpanLog parses a span log produced by WriteSpanLog.
func ReadSpanLog(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for dec.More() {
		var j spanJSON
		if err := dec.Decode(&j); err != nil {
			return out, fmt.Errorf("trace: span log: %w", err)
		}
		kind, ok := KindFromString(j.Kind)
		if !ok {
			return out, fmt.Errorf("trace: span log: unknown kind %q", j.Kind)
		}
		s := Span{
			Kind: kind, Op: j.Op, Start: j.Start, Dur: j.Dur,
			Bytes: j.Bytes, Attempt: j.Attempt, Err: j.Err,
		}
		if _, err := fmt.Sscanf(j.Trace, "%x", (*uint64)(&s.Trace)); err != nil {
			return out, fmt.Errorf("trace: span log: trace id %q", j.Trace)
		}
		if _, err := fmt.Sscanf(j.Span, "%x", (*uint64)(&s.Span)); err != nil {
			return out, fmt.Errorf("trace: span log: span id %q", j.Span)
		}
		if j.Parent != "" {
			if _, err := fmt.Sscanf(j.Parent, "%x", (*uint64)(&s.Parent)); err != nil {
				return out, fmt.Errorf("trace: span log: parent id %q", j.Parent)
			}
		}
		out = append(out, s)
	}
	return out, nil
}
