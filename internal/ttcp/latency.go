package ttcp

import (
	"fmt"
	"sort"
	"time"

	"zcorba/internal/media"
	"zcorba/internal/orb"
	"zcorba/internal/zcbuf"
)

// Latency measurements complement the bandwidth sweeps: the paper's
// related work (TAO, [18]) optimized per-invocation overheads, and the
// deposit architecture deliberately trades a little small-call latency
// (a second connection to coordinate) for bulk bandwidth. LatencyProbe
// measures per-invocation round-trip times so that trade-off — and the
// block size where the zero-copy path starts winning — is visible.

// LatencyResult summarizes a round-trip latency distribution.
type LatencyResult struct {
	Mode      Mode
	BlockSize int
	Samples   int
	Mean      time.Duration
	P50       time.Duration
	P90       time.Duration
	P99       time.Duration
}

// String renders a one-line summary.
func (r LatencyResult) String() string {
	return fmt.Sprintf("latency-%s: block %d, n=%d, mean=%v p50=%v p90=%v p99=%v",
		r.Mode, r.BlockSize, r.Samples, r.Mean, r.P50, r.P90, r.P99)
}

// CorbaLatency measures per-invocation round-trip latency against a
// Store sink for blocks of blockSize bytes, using the zero-copy
// operation when zeroCopy is set. A warmup invocation establishes the
// connections before timing starts.
func CorbaLatency(client *orb.ORB, iorStr string, blockSize, samples int,
	zeroCopy bool) (LatencyResult, error) {
	mode := ModeCorba
	if zeroCopy {
		mode = ModeZCCorba
	}
	res := LatencyResult{Mode: mode, BlockSize: blockSize, Samples: samples}
	if samples <= 0 {
		return res, fmt.Errorf("ttcp: latency needs samples > 0")
	}
	ref, err := client.StringToObject(iorStr)
	if err != nil {
		return res, err
	}
	stub := media.Media_StoreStub{Ref: ref}

	var pool zcbuf.Pool
	buf, err := pool.Get(blockSize)
	if err != nil {
		return res, err
	}
	defer buf.Release()

	call := func() error {
		var n uint32
		var err error
		if zeroCopy {
			n, err = stub.Zput(buf)
		} else {
			n, err = stub.Put(buf.Bytes())
		}
		if err != nil {
			return err
		}
		if int(n) != blockSize {
			return fmt.Errorf("ttcp: acknowledged %d of %d bytes", n, blockSize)
		}
		return nil
	}
	if err := call(); err != nil { // warmup: dial, ring promotion
		return res, err
	}
	lats := make([]time.Duration, samples)
	for i := range lats {
		start := time.Now()
		if err := call(); err != nil {
			return res, err
		}
		lats[i] = time.Since(start)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	res.Mean = sum / time.Duration(samples)
	res.P50 = lats[samples/2]
	res.P90 = lats[samples*9/10]
	res.P99 = lats[samples*99/100]
	return res, nil
}

// Crossover sweeps small block sizes and returns, per size, the mean
// invocation latency of the standard and zero-copy paths. The size
// where the zero-copy column first wins is the deposit architecture's
// break-even point on this host.
type CrossoverPoint struct {
	BlockSize int
	Standard  time.Duration
	ZeroCopy  time.Duration
}

// Crossover measures both paths against the given sinks.
func Crossover(stdClient *orb.ORB, stdIOR string, zcClient *orb.ORB, zcIOR string,
	sizes []int, samples int) ([]CrossoverPoint, error) {
	out := make([]CrossoverPoint, 0, len(sizes))
	for _, size := range sizes {
		std, err := CorbaLatency(stdClient, stdIOR, size, samples, false)
		if err != nil {
			return out, fmt.Errorf("ttcp: crossover std %d: %w", size, err)
		}
		zc, err := CorbaLatency(zcClient, zcIOR, size, samples, true)
		if err != nil {
			return out, fmt.Errorf("ttcp: crossover zc %d: %w", size, err)
		}
		out = append(out, CrossoverPoint{BlockSize: size, Standard: std.Mean, ZeroCopy: zc.Mean})
	}
	return out, nil
}
