// Command benchmark is the repository's benchmark: four closed-loop
// ttcp workloads against the ORB's public API, measured scheduler-free
// (client and server ORB in one process on one P, over real loopback
// sockets) and reported as medians pooled over fresh-process passes.
// README.md in this directory explains every choice; BENCHMARK.json at
// the repository root is the contract it is run under.
//
//	cd benchmark && go run . [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-aa]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// method is how a set of runs is measured. It is fixed: the same on
// every commit, so that two records can be compared.
type method struct {
	Passes int           // fresh child processes per workload
	Slices int           // measured slices per pass
	Slice  time.Duration // length of one slice
	Warmup time.Duration // unrecorded closed loop before the first slice
	Cycles int           // timed cold set-up cycles per pass, the first included
	Traced time.Duration // length of the traced run
	// ProbeBatch and ProbeReps size the probes child.
	ProbeBatch time.Duration
	ProbeReps  int
}

// defaultMethod measures for seconds in total per workload, spread over
// 10 processes × 18 slices (133 ms each at the contract's 24 s). Slices
// are short and many so that a tail of their rates sits inside the
// host's base clock level, and the passes are many so that one
// pathological process is less than that tail (README "A/A").
func defaultMethod(seconds float64) method {
	m := method{Passes: 10, Slices: 18, Warmup: 500 * time.Millisecond, Cycles: 75,
		Traced: 2 * time.Second, ProbeBatch: 30 * time.Millisecond, ProbeReps: 7}
	m.Slice = time.Duration(seconds / float64(m.Passes*m.Slices) * float64(time.Second))
	return m
}

// smokeMethod exercises every code path in a few seconds; its numbers
// mean nothing.
var smokeMethod = method{Passes: 1, Slices: 2, Slice: 100 * time.Millisecond,
	Warmup: 100 * time.Millisecond, Cycles: 3, Traced: 200 * time.Millisecond,
	ProbeBatch: 2 * time.Millisecond, ProbeReps: 3}

// childTimeout bounds one child process; the longest (the probes) takes
// about ten seconds.
const childTimeout = 90 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: all four)")
		seed    = fs.Uint64("seed", 1, "seed of payload pattern, sampled offsets and request stamps")
		seconds = fs.Float64("seconds", 24, "measured seconds per workload, split over passes x slices")
		traced  = fs.Int("trace", 1, "1: also run the traced pass and the probes, and report per-layer metrics; 0: end-to-end only")
		aa      = fs.Bool("aa", false, "run two full sets back to back and compare them against the bounds")
		smoke   = fs.Bool("smoke", false, "tiny run that exercises every path (numbers are meaningless)")
		outDir  = fs.String("out", "out", "directory for span logs, the report and unix sockets")

		child   = fs.String("child", "", "internal: run as the child for this workload, or \"probes\"")
		pass    = fs.Int("pass", 0, "internal: pass index of this child")
		tracedC = fs.Bool("traced", false, "internal: this child is the traced run")
		corrupt = fs.Bool("corrupt", false, "internal: the servant flips one sampled byte per block (tests)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be between 1 and 60")
		return 2
	}
	// The method follows from -seconds and -smoke alone, in the parent and
	// in every child: there is no flag to measure a child differently.
	m := defaultMethod(*seconds)
	if *smoke {
		m = smokeMethod
	}

	switch *child {
	case "":
	case "probes":
		return exitCode(runProbes(*outDir, m, stdout), stderr)
	default:
		return exitCode(runChild(childParams{
			Workload: *child, Seed: *seed, Pass: *pass, M: m, Traced: *tracedC, Corrupt: *corrupt, OutDir: *outDir,
		}, stdout), stderr)
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return exitCode(err, stderr)
	}
	r := &runner{m: m, seconds: *seconds, smoke: *smoke, seed: *seed, outDir: *outDir, corrupt: *corrupt, stderr: stderr}

	if *aa {
		return exitCode(r.runAA(selected, stdout), stderr)
	}
	rep, err := r.runSet(selected, *traced == 1)
	if err != nil {
		return exitCode(err, stderr)
	}
	rep.print(stdout)
	if err := rep.write(filepath.Join(*outDir, "report.json")); err != nil {
		return exitCode(err, stderr)
	}
	rep.printResultLine(stdout, *name != "", *traced == 1)
	if rep.failed() > 0 {
		return 1
	}
	return 0
}

func exitCode(err error, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Running children

type runner struct {
	m       method
	seconds float64
	smoke   bool
	seed    uint64
	outDir  string
	corrupt bool
	stderr  io.Writer
}

// spawn runs this executable as a child, one at a time, waits for it,
// and decodes the JSON line it prints.
func (r *runner) spawn(out any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, append(args, "-out", r.outDir)...)
	// GOMAXPROCS=1 from the first instruction, not only from main.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", childEnv+"=1")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, r.stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %s: bad output: %w", strings.Join(args, " "), err)
	}
	return nil
}

// childEnv marks a process as a child; the smoke test's TestMain uses
// it to turn the test binary into the benchmark.
const childEnv = "ZCORBA_BENCH_CHILD"

// childArgs is everything a child is told: which workload and pass, the
// seed, and the two inputs of the method.
func (r *runner) childArgs(child string, pass int) []string {
	args := []string{"-child", child, "-seed", fmt.Sprint(r.seed), "-pass", fmt.Sprint(pass),
		"-seconds", fmt.Sprint(r.seconds)}
	if r.smoke {
		args = append(args, "-smoke")
	}
	if r.corrupt {
		args = append(args, "-corrupt")
	}
	return args
}

// runSet runs one full set: the passes in pass-major order, so that
// every workload's samples are spread over the whole run and over
// Passes process layouts, then (traced only) one traced child per
// workload and the probes child.
func (r *runner) runSet(selected []workload, traced bool) (*report, error) {
	rep := &report{Host: hostInfo(r.m, r.seed), Traced: traced}
	results := make(map[string][]childResult)
	for pass := 0; pass < r.m.Passes; pass++ {
		for _, w := range selected {
			fmt.Fprintf(r.stderr, "pass %d/%d %s\n", pass+1, r.m.Passes, w.Name)
			var res childResult
			if err := r.spawn(&res, r.childArgs(w.Name, pass)...); err != nil {
				return nil, err
			}
			results[w.Name] = append(results[w.Name], res)
		}
	}
	var probeStats map[string]stat
	tracedResults := make(map[string]childResult)
	if traced {
		for _, w := range selected {
			fmt.Fprintf(r.stderr, "traced %s\n", w.Name)
			var res childResult
			if err := r.spawn(&res, append(r.childArgs(w.Name, r.m.Passes), "-traced")...); err != nil {
				return nil, err
			}
			tracedResults[w.Name] = res
		}
		fmt.Fprintln(r.stderr, "probes")
		if err := r.spawn(&probeStats, r.childArgs("probes", 0)...); err != nil {
			return nil, err
		}
	}
	for _, w := range selected {
		wr := reduce(w, results[w.Name])
		if traced {
			wr.addTraced(tracedResults[w.Name], probeStats)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// allocsFloor is the absolute slack of allocs_per_req: 2 % of a small
// count would be less than one allocation in two requests.
const allocsFloor = 0.5

// runAA runs two untraced sets of the same code back to back and holds
// their medians against the bounds: the benchmark's own noise test.
func (r *runner) runAA(selected []workload, stdout io.Writer) error {
	var sets [2]*report
	for i := range sets {
		fmt.Fprintf(r.stderr, "set %d/2\n", i+1)
		rep, err := r.runSet(selected, false)
		if err != nil {
			return err
		}
		if n := rep.failed(); n > 0 {
			rep.print(stdout)
			return fmt.Errorf("%d operations failed", n)
		}
		sets[i] = rep
	}
	fmt.Fprintf(stdout, "%-14s %-15s %14s %14s %8s %6s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	var beyond []string
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			diff := (vb - va) / va
			limit := d.Bound
			if d.Name == "allocs_per_req" {
				limit = max(limit, allocsFloor/va)
			}
			mark := ""
			if diff > limit || diff < -limit {
				mark = "  BEYOND BOUND"
				beyond = append(beyond, a.Name+"/"+d.Name)
			}
			fmt.Fprintf(stdout, "%-14s %-15s %14.6g %14.6g %+7.2f%% %5.0f%%%s\n",
				a.Name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	if len(beyond) > 0 {
		return fmt.Errorf("two sets of the same code disagree beyond the bound on %s", strings.Join(beyond, ", "))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Host

// host is the fingerprint a record is only comparable within.
type host struct {
	CPU        string
	NumCPU     int
	Kernel     string
	Go         string
	GOMAXPROCS int
	Commit     string
	Link       string
	Seed       uint64
	Passes     int
	Slices     int
	SliceS     float64
	WarmupS    float64
	Cycles     int
	TracedS    float64
	// Congestion is what the benchmark's tcp sockets run under and what
	// the host would have given them.
	Congestion string
}

func hostInfo(m method, seed uint64) host {
	h := host{
		CPU: "unknown", NumCPU: runtime.NumCPU(), Kernel: "unknown", Go: runtime.Version(),
		GOMAXPROCS: 1, Commit: "unknown",
		Link: "loopback, not a real link: with one P the processor is always busy, so rates measure cost",
		Seed: seed, Passes: m.Passes, Slices: m.Slices, SliceS: m.Slice.Seconds(),
		WarmupS: m.Warmup.Seconds(), Cycles: m.Cycles, TracedS: m.Traced.Seconds(), Congestion: congestionInForce(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}
