package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zcorba/internal/trace"
)

// childParams is what the parent passes to one workload child.
type childParams struct {
	Workload string
	Seed     uint64
	Pass     int
	M        method
	// Traced replaces the slices and set-up cycles with one traced run.
	Traced  bool
	Corrupt bool
	OutDir  string
}

// childResult is the one JSON line a workload child prints.
type childResult struct {
	Workload  string
	Pass      int
	Attempted int64
	Failed    int64
	Errors    []string `json:",omitempty"`
	Slices    []sliceSample
	// SetupS holds every timed set-up cycle in seconds; SetupS[0] is the
	// pair the slices ran on.
	SetupS  []float64
	VmHWMkB int64
	Lat     [][2]int64
	Traced  *tracedResult `json:",omitempty"`
}

// sliceSample is one measured slice of the closed loop.
type sliceSample struct {
	Requests   int64 // verified
	WallS      float64
	CPUS       float64 // user+sys of the whole process, both ORBs
	Mallocs    uint64
	AllocBytes uint64
	GCs        uint32
	GCPauseNS  uint64
	C          counters
}

// maxErrors bounds the error texts a child reports, and the failures it
// tolerates before giving up (a dead connection fails every request
// after a 10 s timeout).
const maxErrors = 8

func (r *childResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// vmHWMkB reads the process's peak resident set from /proc.
func vmHWMkB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runChild is the whole life of a workload child. Nothing but the
// workload runs in this process; the floors under it are measured by the
// probes child.
func runChild(cp childParams, stdout io.Writer) error {
	// One P: client and server goroutines never migrate or wait for a
	// cross-CPU wake-up, which is what made two-process runs 6x slower
	// and 10 % unsteady on the 2-vCPU host (README "Scheduler findings").
	runtime.GOMAXPROCS(1)
	w, ok := findWorkload(cp.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cp.Workload)
	}
	seed := cp.Seed*1_000_003 + uint64(cp.Pass)
	in := newInputs(seed, w.Size)
	e := &env{outDir: cp.OutDir, corrupt: cp.Corrupt}
	res := &childResult{Workload: w.Name, Pass: cp.Pass}
	if cp.Traced {
		e.cliTracer = trace.New(tracedRequestCap * spansPerRequestMax)
		e.srvTracer = trace.New(tracedRequestCap * spansPerRequestMax)
	}

	start := time.Now()
	p, err := newPair(w, in, e)
	first := time.Since(start)
	res.Attempted++
	if err != nil {
		if !cp.Corrupt {
			return fmt.Errorf("set-up: %w", err)
		}
		// A corrupting servant fails the first invocation by design.
		res.fail(err)
		return json.NewEncoder(stdout).Encode(res)
	}

	for t0 := time.Now(); time.Since(t0) < cp.M.Warmup; {
		res.Attempted++
		if err := p.request(); err != nil {
			res.fail(err)
			if res.Failed >= maxErrors {
				break
			}
		}
	}
	runtime.GC()

	if cp.Traced {
		res.Traced, err = p.runTraced(cp, e, res)
		p.close()
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}

	var lat latHist
	for i := 0; i < cp.M.Slices && res.Failed < maxErrors; i++ {
		res.Slices = append(res.Slices, p.runSlice(cp.M.Slice, &lat, res))
	}
	res.Lat = lat.sparse()
	if res.Failed == 0 {
		var sum counters
		var n int64
		for _, s := range res.Slices {
			sum, n = sum.add(s.C), n+s.Requests
		}
		if err := w.planeError(sum, n); err != nil {
			res.fail(err)
		}
	}
	if res.VmHWMkB, err = vmHWMkB(); err != nil {
		return err
	}
	start = time.Now()
	p.close()
	res.SetupS = append(res.SetupS, (first + time.Since(start)).Seconds())

	for i := 1; i < cp.M.Cycles; i++ {
		start = time.Now()
		q, err := newPair(w, in, e)
		res.Attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		q.close()
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runSlice drives the closed loop for d and reports what the process
// spent on it.
func (p *pair) runSlice(d time.Duration, lat *latHist, res *childResult) sliceSample {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, cpu0 := p.counters(), cpuSeconds()
	start := time.Now()
	prev := start
	var s sliceSample
	for {
		res.Attempted++
		if err := p.request(); err != nil {
			res.fail(err)
			if res.Failed >= maxErrors {
				break
			}
		} else {
			s.Requests++
		}
		now := time.Now()
		lat.record(int64(now.Sub(prev)))
		prev = now
		if now.Sub(start) >= d {
			break
		}
	}
	s.WallS = prev.Sub(start).Seconds()
	s.CPUS = cpuSeconds() - cpu0
	s.C = p.counters().sub(c0)
	runtime.ReadMemStats(&ms1)
	s.Mallocs = ms1.Mallocs - ms0.Mallocs
	s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	s.GCs = ms1.NumGC - ms0.NumGC
	s.GCPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	return s
}
