package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark executable:
// the harness re-executes os.Executable() for its children, and marks
// them with childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return r
}

// TestSmoke runs the whole harness — passes, traced children, probes —
// at toy sizes and checks that every workload reports every metric
// exactly once and nothing failed.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	sections := strings.Split(stdout.String(), "\n\n")
	for _, w := range workloads {
		var body string
		for _, s := range sections {
			if strings.HasPrefix(s, w.Name+": ") {
				body = s
			}
		}
		if body == "" {
			t.Fatalf("no section for workload %s", w.Name)
		}
		seen := map[string]int{}
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
				seen[f[0]]++
			}
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
			if seen[d.Name] != 1 {
				t.Errorf("%s: metric %s printed %d times, want 1", w.Name, d.Name, seen[d.Name])
			}
		}
		if !strings.Contains(body, "sum of shares") {
			t.Errorf("%s: no share table", w.Name)
		}
	}
	r := lastLine(t, stdout.String())
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("result line: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	if want := len(workloads) * len(perLayer()); len(r.Metrics) != want {
		t.Errorf("result line has %d metrics, want %d", len(r.Metrics), want)
	}
}

// TestDriverLine checks the contract's last line for one workload:
// bare metric names, end-to-end without tracing.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "page_zput_tcp", "--seed", "7", "--trace", "0", "-smoke", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	r := lastLine(t, stdout.String())
	if len(r.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
			t.Errorf("metric %s = %+v", d.Name, m)
		}
	}
}

// TestCorruptServantFails proves verification bites in both
// directions: a servant that flips one sampled byte of what it receives
// (zput) or returns (zget) makes operations fail and the command exit
// non-zero.
func TestCorruptServantFails(t *testing.T) {
	for _, w := range []string{"page_zput_tcp", "bulk_put_std", "bulk_zget_shm"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-corrupt", "-trace", "0", "-workload", w, "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit 0 with a corrupting servant", w)
		}
		if r := lastLine(t, stdout.String()); r.Correct || r.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d with a corrupting servant", w, r.Correct, r.Failed)
		}
	}
}

// TestContractMatchesTables holds BENCHMARK.json and the Go tables
// together: a metric renamed in one place only would make the driver
// reject every run.
func TestContractMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s", i, spec.Workloads[i], w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	st := summarize([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, "")
	if st.Q1 != 1.75 || st.Value != 3.5 || st.Q3 != 5.25 || st.N != 10 {
		t.Errorf("got %+v", st)
	}
	// statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
	if st := summarize([]float64{2, 1}, ""); st.Q1 != 0.75 || st.Value != 1.5 || st.Q3 != 2.25 {
		t.Errorf("got %+v", st)
	}
	// statistics.quantiles(range(10, 101, 10), n=10)[0] == 11
	if st := summarizeAt([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, "", 0.1); math.Abs(st.Value-11) > 1e-9 || st.Median != 55 {
		t.Errorf("got %+v", st)
	}
}

func TestLatHistQuantiles(t *testing.T) {
	var h latHist
	for ns := int64(1); ns <= 100000; ns++ {
		h.record(ns)
	}
	var merged latHist
	merged.merge(h.sparse())
	for _, q := range []float64{0.5, 0.99} {
		got, want := merged.quantileNS(q), q*100000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
}

func TestExclusivePartitionsTheParent(t *testing.T) {
	parent := span{"client", "invoke", 0, 100}
	kids := []span{
		{"client", "marshal", 0, 10},
		{"client", "deposit_send", 10, 50},
		{"server", "deposit_recv", 20, 60}, // overlaps the send: only 50..60 is its own
		{"server", "reply_send", 90, 120},  // clipped to the parent
	}
	got := map[string]int64{}
	self := exclusive(parent, kids, func(s span, ns int64) { got[s.side+"."+s.kind] += ns })
	want := map[string]int64{"client.marshal": 10, "client.deposit_send": 40, "server.deposit_recv": 10, "server.reply_send": 10}
	var sum int64
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
		sum += v
	}
	if self != 100-sum {
		t.Errorf("self = %d, want %d", self, 100-sum)
	}
}
