package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"zcorba/internal/trace"
)

const (
	// tracedRequestCap ends a traced run early: spans are kept in
	// memory, and 20 000 requests are far more than a median needs.
	tracedRequestCap = 20000
	// spansPerRequestMax sizes the tracers' slabs so they never wrap
	// (a side records at most six spans per request on these workloads).
	spansPerRequestMax = 8
)

// tracedMetrics maps the traced per-layer metric names to (side, kind).
// A workload that never produces a span reports 0 with n=0 (the tcp
// workloads have no shm spans, put has no deposits).
var tracedMetrics = []struct {
	name string
	side string // "client", "server" or "bench"
	kind string
}{
	{"orb.client.invoke_us", "client", "invoke"},
	{"orb.client.marshal_us", "client", "marshal"},
	{"orb.client.control_send_us", "client", "control_send"},
	{"orb.client.deposit_send_us", "client", "deposit_send"},
	{"orb.client.deposit_recv_us", "client", "deposit_recv"},
	{"orb.client.unmarshal_us", "client", "unmarshal"},
	{"orb.client.shm_claim_us", "client", "shm.claim"},
	{"orb.server.deposit_recv_us", "server", "deposit_recv"},
	{"orb.server.unmarshal_us", "server", "unmarshal"},
	{"orb.server.dispatch_us", "server", "dispatch"},
	{"orb.server.reply_send_us", "server", "reply_send"},
	{"orb.server.deposit_send_us", "server", "deposit_send"},
	{"orb.server.shm_deposit_us", "server", "shm.deposit"},
	{"bench.acquire_us", "bench", "acquire"},
	{"bench.call_us", "bench", "call"},
	{"bench.verify_us", "bench", "verify"},
}

// tracedResult is what the traced child reports.
type tracedResult struct {
	Requests int
	ReqPerS  float64
	// Layers holds the median duration (µs) per traced metric name, plus
	// orb.client.invoke_self_us.
	Layers map[string]stat
	// Shares is the mean time per request (µs) each layer had the
	// request to itself, in path order; the rows partition the loop.
	Shares []share
}

type share struct {
	Name string
	US   float64
}

// span is one interval of one request, on the epoch-nanosecond clock
// the ORB's tracer uses.
type span struct {
	side, kind string
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// runTraced drives the closed loop with a tracer in each ORB and the
// benchmark's own spans around its three steps, then reduces the spans.
func (p *pair) runTraced(cp childParams, e *env, res *childResult) (*tracedResult, error) {
	// Warm-up spans are dropped; a straggler recorded after the reset
	// belongs to no measured trace and is ignored below.
	e.cliTracer.Reset()
	e.srvTracer.Reset()
	bench := make([][3]span, 0, tracedRequestCap)
	start := time.Now()
	for len(bench) < tracedRequestCap && time.Since(start) < cp.M.Traced {
		res.Attempted++
		t0 := trace.Now()
		p.acquire()
		t1 := trace.Now()
		ack, got, err := p.call()
		t2 := trace.Now()
		err = p.verify(ack, got, err)
		t3 := trace.Now()
		if err != nil {
			res.fail(err)
			if res.Failed >= maxErrors {
				break
			}
			continue
		}
		bench = append(bench, [3]span{
			{"bench", "acquire", t0, t1}, {"bench", "call", t1, t2}, {"bench", "verify", t2, t3}})
	}
	wall := time.Since(start)
	if res.Failed > 0 || len(bench) == 0 {
		return &tracedResult{}, nil
	}

	// The i-th invoke span belongs to the i-th request: one caller, no
	// retries, spans recorded in completion order.
	reqs := make([][]span, 0, len(bench))
	index := make(map[trace.ID]int, len(bench))
	cliSpans := e.cliTracer.Spans()
	for _, s := range cliSpans {
		if s.Kind == trace.KindInvoke {
			index[s.Trace] = len(reqs)
			reqs = append(reqs, make([]span, 0, 16))
		}
	}
	if len(reqs) != len(bench) {
		return nil, fmt.Errorf("traced run: %d invoke spans for %d requests", len(reqs), len(bench))
	}
	for i := range reqs {
		reqs[i] = append(reqs[i], bench[i][:]...)
	}
	for side, spans := range map[string][]trace.Span{"client": cliSpans, "server": e.srvTracer.Spans()} {
		for _, s := range spans {
			if i, ok := index[s.Trace]; ok {
				reqs[i] = append(reqs[i], span{side, s.Kind.String(), s.Start, s.Start + s.Dur})
			}
		}
	}
	for _, r := range reqs {
		sort.SliceStable(r, func(a, b int) bool { return r[a].start < r[b].start })
	}

	tr := &tracedResult{
		Requests: len(reqs),
		ReqPerS:  float64(len(reqs)) / wall.Seconds(),
		Layers:   reduceLayers(reqs),
		Shares:   reduceShares(reqs),
	}
	return tr, writeSpanLog(filepath.Join(cp.OutDir, cp.Workload+".spans.ndjson"), reqs)
}

func find(r []span, side, kind string) (span, bool) {
	for _, s := range r {
		if s.side == side && s.kind == kind {
			return s, true
		}
	}
	return span{}, false
}

// exclusive walks the children of parent in start order and gives each
// the part of parent's interval no earlier child covered; what is left
// is parent's self time.
func exclusive(parent span, children []span, each func(s span, ns int64)) (self int64) {
	cursor := parent.start
	self = parent.dur()
	for _, c := range children {
		from, to := max(c.start, cursor), min(c.end, parent.end)
		if to > from {
			each(c, to-from)
			self -= to - from
			cursor = to
		}
	}
	return self
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func reduceLayers(reqs [][]span) map[string]stat {
	samples := map[string][]float64{}
	for _, r := range reqs {
		for _, m := range tracedMetrics {
			if s, ok := find(r, m.side, m.kind); ok {
				samples[m.name] = append(samples[m.name], us(s.dur()))
			}
		}
		// Self time of invoke as the client sees it: everything its own
		// child spans do not cover, i.e. the reply wait including the
		// server.
		inv, _ := find(r, "client", "invoke")
		var kids []span
		for _, s := range r {
			if s.side == "client" && s.kind != "invoke" {
				kids = append(kids, s)
			}
		}
		self := exclusive(inv, kids, func(span, int64) {})
		samples["orb.client.invoke_self_us"] = append(samples["orb.client.invoke_self_us"], us(self))
	}
	out := map[string]stat{"orb.client.invoke_self_us": summarize(samples["orb.client.invoke_self_us"], "us")}
	for _, m := range tracedMetrics {
		out[m.name] = summarize(samples[m.name], "us")
	}
	return out
}

// reduceShares partitions the loop's wall time. Inside invoke every
// span of either side is a child (they all carry the invoke span as
// parent on the wire); overlap — a server read blocked while the client
// still writes — goes to the span that started first, so no nanosecond
// is counted twice. What the rows leave of 1e6/req_per_s is the loop's
// own clock reads.
func reduceShares(reqs [][]span) []share {
	total := map[string]int64{}
	var order []string
	add := func(name string, ns int64) {
		if _, seen := total[name]; !seen {
			order = append(order, name)
		}
		total[name] += ns
	}
	for _, r := range reqs {
		acq, _ := find(r, "bench", "acquire")
		call, _ := find(r, "bench", "call")
		ver, _ := find(r, "bench", "verify")
		inv, _ := find(r, "client", "invoke")
		var kids []span
		for _, s := range r {
			if s.side != "bench" && s.kind != "invoke" {
				kids = append(kids, s)
			}
		}
		add("bench.acquire", acq.dur())
		add("bench.call (stub, outside invoke)", call.dur()-inv.dur())
		self := exclusive(inv, kids, func(s span, ns int64) { add("orb."+s.side+"."+s.kind, ns) })
		add("orb.client.invoke self (wake-ups, kernel, framing, reply match)", self)
		add("bench.verify", ver.dur())
	}
	out := make([]share, 0, len(order))
	for _, name := range order {
		out = append(out, share{name, us(total[name]) / float64(len(reqs))})
	}
	return out
}

// writeSpanLog writes every traced request as one JSON array per line:
// the epoch nanosecond its first span started at, then for each name of
// tracedMetrics, in that order, the span's start relative to it and its
// duration (0, 0 for a span the request did not produce). The first line
// names the columns. A table of numbers instead of one object per span
// is what lets all 20 000 requests of a run fit: the four logs together
// stay under 15 MB.
func writeSpanLog(path string, reqs [][]span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	columns := []string{"t0_ns"}
	for _, m := range tracedMetrics {
		name := strings.TrimSuffix(m.name, "_us")
		columns = append(columns, name+".start_ns", name+".dur_ns")
	}
	if err := enc.Encode(map[string][]string{"columns": columns}); err != nil {
		return err
	}
	row := make([]int64, 0, len(columns))
	for _, r := range reqs {
		t0 := r[0].start // spans are sorted by start
		row = append(row[:0], t0)
		for _, m := range tracedMetrics {
			if s, ok := find(r, m.side, m.kind); ok {
				row = append(row, s.start-t0, s.dur())
			} else {
				row = append(row, 0, 0)
			}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
