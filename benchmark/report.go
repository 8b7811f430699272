package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef names one reported metric. The tables below are the same
// lists as BENCHMARK.json's end_to_end and per_layer (the smoke test
// holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
}

// README "A/A" has the measured spreads behind the bounds.
var endToEnd = []metricDef{
	{"req_per_s", "1/s", "higher", 0.15},
	{"cpu_us_per_req", "us", "lower", 0.15},
	{"allocs_per_req", "count", "lower", 0.02},
	{"peak_rss_MB", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// reportedQuantile is the quantile of the pooled samples a metric
// reports. Every metric is a median except the two the host's clock
// moves: its cores run at a base level most of the time and some 10 %
// (20 % for memory-bound work) faster in episodes of seconds to a minute,
// so the median of a run's slices sits wherever the episodes put it. What
// repeats is the base level, which a tail inside it reads: the rate the
// loop holds in 85 % of its slices, and the CPU per request it stays
// under in 85 %. The tail is wider than one pass's share of the slices
// (10 %), so one process that runs at half speed for life — about one in
// a hundred does — cannot set it (README "A/A").
func reportedQuantile(name string) float64 {
	switch name {
	case "req_per_s":
		return 0.15
	case "cpu_us_per_req":
		return 0.85
	}
	return 0.5
}

// countLayers are the per-layer metrics read from the untraced passes:
// orb.Stats, zcbuf.PoolStats and runtime deltas over each slice.
var countLayers = []metricDef{
	{Name: "orb.payload_copy_bytes_per_byte", Unit: "ratio", Better: "lower"},
	{Name: "orb.payload_copies_per_req", Unit: "count", Better: "lower"},
	{Name: "orb.deposits_per_req", Unit: "count", Better: "higher"},
	{Name: "orb.deposit_bytes_per_req", Unit: "B", Better: "higher"},
	{Name: "orb.shm_deposits_per_req", Unit: "count", Better: "higher"},
	{Name: "orb.shm_claims_per_req", Unit: "count", Better: "higher"},
	{Name: "orb.body_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "orb.body_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "orb.zc_fallbacks", Unit: "count", Better: "lower"},
	{Name: "orb.data_chan_fallbacks", Unit: "count", Better: "lower"},
	{Name: "orb.shm_misses", Unit: "count", Better: "lower"},
	{Name: "orb.retries", Unit: "count", Better: "lower"},
	{Name: "orb.timeouts", Unit: "count", Better: "lower"},
	{Name: "zcbuf.lease_expiries", Unit: "count", Better: "lower"},
	{Name: "zcbuf.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transport.tcp.reads_per_req", Unit: "count", Better: "lower"},
	{Name: "transport.tcp.writes_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "runtime.gc_pause_us_per_s", Unit: "us/s", Better: "lower"},
	{Name: "ttcp.goodput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "ttcp.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "ttcp.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "ttcp.slice_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ttcp.first_setup_ms", Unit: "ms", Better: "lower"},
}

// perLayer lists every per-layer metric in report order: counts, traced
// spans, probes.
func perLayer() []metricDef {
	out := append([]metricDef(nil), countLayers...)
	for _, m := range tracedMetrics {
		out = append(out, metricDef{Name: m.name, Unit: "us", Better: "lower"})
		if m.name == "orb.client.invoke_us" {
			out = append(out, metricDef{Name: "orb.client.invoke_self_us", Unit: "us", Better: "lower"})
		}
	}
	out = append(out, metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"})
	for _, p := range probes {
		better := "lower"
		if p.unit == "MB/s" {
			better = "higher"
		}
		out = append(out, metricDef{Name: p.name, Unit: p.unit, Better: better})
	}
	return out
}

// report is one set of runs.
type report struct {
	Host      host
	Traced    bool
	Workloads []*workloadReport
}

// workloadReport is one workload's pooled result.
type workloadReport struct {
	Name      string
	Why       string
	Attempted int64
	Failed    int64
	Errors    []string `json:",omitempty"`
	EndToEnd  map[string]stat
	// Samples holds the pooled end-to-end samples behind the medians, for
	// offline study of the benchmark's own noise.
	Samples  map[string][]float64
	PerLayer map[string]stat `json:",omitempty"`
	// Shares is the traced run's partition of one loop iteration.
	Shares        []share `json:",omitempty"`
	TracedReqPerS float64 `json:",omitempty"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reduce pools the passes of one workload: every metric is the median
// over all slices (or cycles, or passes) of all passes.
func reduce(w workload, passes []childResult) *workloadReport {
	wr := &workloadReport{Name: w.Name, Why: w.Why, EndToEnd: map[string]stat{}, Samples: map[string][]float64{}, PerLayer: map[string]stat{}}
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var lat latHist
	var sum counters
	var nSlices int
	for _, p := range passes {
		wr.Attempted += p.Attempted
		wr.Failed += p.Failed
		wr.Errors = append(wr.Errors, p.Errors...)
		lat.merge(p.Lat)
		add("peak_rss_MB", float64(p.VmHWMkB)/1024)
		for i, s := range p.SetupS {
			add("setup_s", s)
			if i == 0 {
				add("ttcp.first_setup_ms", s*1e3)
			}
		}
		for _, s := range p.Slices {
			if s.Requests == 0 || s.WallS == 0 {
				continue
			}
			n := float64(s.Requests)
			nSlices++
			sum = sum.add(s.C)
			c := func(i int) float64 { return float64(s.C[i]) }
			add("req_per_s", n/s.WallS)
			add("cpu_us_per_req", s.CPUS*1e6/n)
			add("allocs_per_req", float64(s.Mallocs)/n)
			add("orb.payload_copy_bytes_per_byte", c(cPayloadCopyBytes)/(n*float64(w.Size)))
			add("orb.payload_copies_per_req", c(cPayloadCopies)/n)
			add("orb.deposits_per_req", c(cDepositsSent)/n)
			add("orb.deposit_bytes_per_req", c(cDepositBytesSent)/n)
			add("orb.shm_deposits_per_req", c(cShmDeposits)/n)
			add("orb.shm_claims_per_req", c(cShmClaims)/n)
			add("orb.body_allocs_per_req", c(cBodyAllocs)/n)
			add("orb.body_reuse_ratio", ratio(c(cBodyReuses), c(cBodyAllocs)+c(cBodyReuses)))
			add("zcbuf.pool_hit_ratio", ratio(c(cPoolReuses), c(cPoolAllocs)+c(cPoolReuses)))
			add("transport.tcp.reads_per_req", c(cSocketReads)/n)
			add("transport.tcp.writes_per_req", c(cSocketWrites)/n)
			add("runtime.alloc_bytes_per_req", float64(s.AllocBytes)/n)
			add("runtime.gc_cycles_per_s", float64(s.GCs)/s.WallS)
			add("runtime.gc_pause_us_per_s", float64(s.GCPauseNS)/1e3/s.WallS)
			add("ttcp.goodput_MBps", n*float64(w.Size)/1e6/s.WallS)
		}
	}
	for _, d := range endToEnd {
		wr.EndToEnd[d.Name] = summarizeAt(per[d.Name], d.Unit, reportedQuantile(d.Name))
		wr.Samples[d.Name] = per[d.Name]
	}
	for _, d := range countLayers {
		wr.PerLayer[d.Name] = summarize(per[d.Name], d.Unit)
	}
	// The must-be-zero counters are totals over every slice, not medians:
	// one fallback in one slice has to show.
	for name, i := range map[string]int{
		"orb.zc_fallbacks": cZCFallbacks, "orb.data_chan_fallbacks": cDataChanFallbacks,
		"orb.shm_misses": cShmMisses, "orb.retries": cRetries, "orb.timeouts": cTimeouts,
		"zcbuf.lease_expiries": cLeaseExpiries,
	} {
		v := float64(sum[i])
		wr.PerLayer[name] = stat{Value: v, Unit: "count", Q1: v, Median: v, Q3: v, N: nSlices}
	}
	n := int(lat.total())
	p50, p99 := lat.quantileNS(0.50)/1e3, lat.quantileNS(0.99)/1e3
	wr.PerLayer["ttcp.lat_p50_us"] = stat{Value: p50, Unit: "us", Q1: lat.quantileNS(0.25) / 1e3, Median: p50, Q3: lat.quantileNS(0.75) / 1e3, N: n}
	wr.PerLayer["ttcp.lat_p99_us"] = stat{Value: p99, Unit: "us", Q1: p99, Median: p99, Q3: p99, N: n}
	rate := wr.EndToEnd["req_per_s"]
	iqr := ratio(rate.Q3-rate.Q1, rate.Median)
	wr.PerLayer["ttcp.slice_iqr_ratio"] = stat{Value: iqr, Unit: "ratio", Q1: iqr, Median: iqr, Q3: iqr, N: rate.N}
	return wr
}

// addTraced merges the traced child's layers and the probes into the
// workload's per-layer metrics.
func (wr *workloadReport) addTraced(res childResult, probeStats map[string]stat) {
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Errors = append(wr.Errors, res.Errors...)
	tr := res.Traced
	if tr == nil {
		tr = &tracedResult{}
	}
	for name, st := range tr.Layers {
		wr.PerLayer[name] = st
	}
	wr.Shares, wr.TracedReqPerS = tr.Shares, tr.ReqPerS
	wr.PerLayer["trace.overhead_ratio"] = summarize([]float64{ratio(tr.ReqPerS, wr.EndToEnd["req_per_s"].Median)}, "ratio")
	for name, st := range probeStats {
		wr.PerLayer[name] = st
	}
}

func (r *report) failed() (n int64) {
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the human-readable record: host block, then every metric
// of every workload by name with unit, quartiles and sample count.
func (r *report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "host: %s, %d CPUs, Linux %s, %s, GOMAXPROCS=%d in every child, commit %s\n",
		h.CPU, h.NumCPU, h.Kernel, h.Go, h.GOMAXPROCS, h.Commit)
	fmt.Fprintf(w, "link: %s; tcp congestion control %s\n", h.Link, h.Congestion)
	fmt.Fprintf(w, "method: seed %d, %d passes x %d slices x %.3fs after %.1fs warm-up, %d set-up cycles per pass, traced run %.1fs\n",
		h.Seed, h.Passes, h.Slices, h.SliceS, h.WarmupS, h.Cycles, h.TracedS)
	row := func(d metricDef, st stat) {
		fmt.Fprintf(w, "  %-40s %14.6g %-5s  q1 %-12.6g median %-12.6g q3 %-12.6g n=%d\n", d.Name, st.Value, st.Unit, st.Q1, st.Median, st.Q3, st.N)
	}
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s: %s\n", wr.Name, wr.Why)
		fmt.Fprintf(w, "  operations attempted %d, failed %d\n", wr.Attempted, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, d := range endToEnd {
			row(d, wr.EndToEnd[d.Name])
		}
		if !r.Traced {
			for _, d := range countLayers {
				row(d, wr.PerLayer[d.Name])
			}
			continue
		}
		for _, d := range perLayer() {
			row(d, wr.PerLayer[d.Name])
		}
		if wr.TracedReqPerS == 0 {
			continue
		}
		// One caller on one P: an iteration's time is the sum of the self
		// times on its path, so a layer's saving is at most its share.
		iter := 1e6 / wr.TracedReqPerS
		var total float64
		for _, s := range wr.Shares {
			total += s.US
		}
		fmt.Fprintf(w, "  shares of one traced iteration (mean us per request; 1e6/req_per_s of the traced run = %.3f us)\n", iter)
		for _, s := range wr.Shares {
			fmt.Fprintf(w, "    %-66s %10.3f us %5.1f%%\n", s.Name, s.US, 100*s.US/iter)
		}
		fmt.Fprintf(w, "    %-66s %10.3f us %5.1f%%\n", "sum of shares", total, 100*total/iter)
	}
	fmt.Fprintln(w)
}

// printResultLine prints the contract's last line. With one workload
// selected the metrics carry their bare names — end-to-end without
// tracing, per-layer with; with several they are prefixed by workload.
func (r *report) printResultLine(w io.Writer, single, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var attempted int64
	for _, wr := range r.Workloads {
		attempted += wr.Attempted
		prefix := wr.Name + "/"
		if single {
			prefix = ""
		}
		defs, from := endToEnd, wr.EndToEnd
		if traced {
			defs, from = perLayer(), wr.PerLayer
		}
		for _, d := range defs {
			metrics[prefix+d.Name] = value{from[d.Name].Value, d.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed() == 0, attempted, r.failed(), metrics})
	fmt.Fprintf(w, "%s\n", b)
}
