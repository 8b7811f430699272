package main

import (
	"math"
	"math/bits"
	"sort"
)

// stat is one reported metric with the quartiles and the sample count of
// the pooled samples behind it. Value is the median, except for the two
// metrics reported at a tail (reportedQuantile).
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of samples.
func summarize(samples []float64, unit string) stat { return summarizeAt(samples, unit, 0.5) }

// summarizeAt is summarize with the p-quantile as the reported value.
func summarizeAt(samples []float64, unit string, p float64) stat {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	st := stat{Unit: unit, N: len(s)}
	switch len(s) {
	case 0:
		return st
	case 1:
		st.Value, st.Q1, st.Median, st.Q3 = s[0], s[0], s[0], s[0]
		return st
	}
	st.Value, st.Q1, st.Median, st.Q3 = quantile(s, p), quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
	return st
}

// quantile returns the p-quantile of the sorted samples by the
// "exclusive" method of Python's statistics.quantiles, so a spread
// computed here equals the one the driver computes.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	j := min(max(int(pos), 1), n-1)
	d := pos - float64(j)
	return sorted[j-1]*(1-d) + sorted[j]*d
}

// latHist is a log-linear histogram of nanosecond latencies: 64
// sub-buckets per octave (1.6 % resolution) in fixed memory, so the
// closed loop records every request without allocating and the parent
// can pool the passes of five processes into one distribution.
type latHist struct {
	counts [latBuckets]int64
}

const (
	latSubBits = 6
	latSub     = 1 << latSubBits
	latBuckets = latSub * (64 - latSubBits + 1)
)

func latBucket(ns int64) int {
	if ns < latSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - latSubBits - 1
	return latSub + e*latSub + int(ns>>e) - latSub
}

// latValue is the midpoint of bucket i.
func latValue(i int) float64 {
	if i < latSub {
		return float64(i)
	}
	e := (i - latSub) / latSub
	m := int64((i-latSub)%latSub + latSub)
	return float64(m<<e) + float64(int64(1)<<e)/2
}

func (h *latHist) record(ns int64) { h.counts[latBucket(ns)]++ }

// sparse lists the non-empty buckets as (index, count) pairs.
func (h *latHist) sparse() [][2]int64 {
	var out [][2]int64
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, [2]int64{int64(i), c})
		}
	}
	return out
}

func (h *latHist) merge(pairs [][2]int64) {
	for _, p := range pairs {
		if p[0] >= 0 && p[0] < latBuckets {
			h.counts[p[0]] += p[1]
		}
	}
}

func (h *latHist) total() int64 {
	var n int64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// quantileNS returns the q-th quantile (0 < q <= 1) in nanoseconds.
func (h *latHist) quantileNS(q float64) float64 {
	n := h.total()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return latValue(i)
		}
	}
	return latValue(latBuckets - 1)
}
