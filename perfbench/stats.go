package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// may be reported as a run's tail: fewer, and the "tail" is one or two
// unlucky samples rather than a property of the system.
const minBeyond = 10

// A run's tail is the highest percentile of a ladder that keeps
// minBeyond samples above it, so a longer run reports a deeper tail and
// a short one falls back to the median. The gated tail climbs no
// higher than p90: on a small shared host, a read loop's p99 and p99.9
// are samples caught in collector pauses and scheduler hiccups, and
// between seeds of the same code they moved by 15-50%, where p90 moved
// by under 10%. The deeper tail is still computed and recorded beside
// it, ungated.
var (
	tailLadder = []float64{50, 90}
	deepLadder = []float64{99, 99.9}
)

// Summary is one timing metric over a run: its median and its tail, with
// the sample count and the percentile each tail sits at, so two runs are
// only compared at the same depth.
type Summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Beyond  int     `json:"beyond"` // samples strictly above the tail's rank
	// Deep is the highest of p99 and p99.9 that keeps minBeyond samples
	// above it (DeepPct 0 when neither does).
	Deep       float64 `json:"deep,omitempty"`
	DeepPct    float64 `json:"deep_pct,omitempty"`
	DeepBeyond int     `json:"deep_beyond,omitempty"`
}

// rank returns the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The ladder's percentiles have at most one decimal, so a true
	// fractional rank is a multiple of 0.001; the epsilon only absorbs
	// binary rounding (99.9/100*10000 is 9990.000000000002).
	r := int(math.Ceil(p/100*float64(n) - 1e-6))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// highest returns the value, percentile and samples-beyond count of the
// highest ladder percentile of sorted s that keeps minBeyond samples
// above it; ok is false when none does.
func highest(s []float64, ladder []float64) (v, pct float64, beyond int, ok bool) {
	n := len(s)
	for _, p := range ladder {
		r := rank(p, n)
		if n-r < minBeyond {
			break
		}
		v, pct, beyond, ok = s[r-1], p, n-r, true
	}
	return v, pct, beyond, ok
}

// Summarize computes the median and the tails of xs by nearest rank. It
// does not modify xs. With fewer than minBeyond+2 samples even the
// median has too few samples above it; the tail then equals the median
// and Beyond says how thin it is.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := rank(50, n)
	sum := Summary{N: n, P50: s[mid-1], Tail: s[mid-1], TailPct: 50, Beyond: n - mid}
	if v, pct, beyond, ok := highest(s, tailLadder); ok {
		sum.Tail, sum.TailPct, sum.Beyond = v, pct, beyond
	}
	if v, pct, beyond, ok := highest(s, deepLadder); ok {
		sum.Deep, sum.DeepPct, sum.DeepBeyond = v, pct, beyond
	}
	return sum
}

// Median is the nearest-rank median of xs (0 for no samples).
func Median(xs []float64) float64 { return Summarize(xs).P50 }

// ErrorFrac is the share of attempted operations that failed, timed out
// or returned a wrong answer. A run that attempted nothing has no
// defined share and reports 1: nothing it claims was shown to work.
func ErrorFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// Reconcile checks that the medians of the stages on a blocking path add
// up to the end-to-end median. remainder is the end-to-end median minus
// the stage sum — the time no stage accounts for — and ok reports
// whether its magnitude stays within tol of the end-to-end median.
func Reconcile(total float64, stages []float64, tol float64) (remainder float64, ok bool) {
	sum := 0.0
	for _, s := range stages {
		sum += s
	}
	remainder = total - sum
	return remainder, math.Abs(remainder) <= tol*total
}
