package main

import (
	"math"
	"testing"
)

// seq returns the samples 1..n in a scrambled order, so Summarize must
// sort them itself.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*7)%n + 1)
	}
	return xs
}

func TestSummarizeTailDepthFollowsSampleCount(t *testing.T) {
	cases := []struct {
		n             int
		p50, tail     float64
		tailPct       float64
		beyond        int
		deep, deepPct float64
		deepBeyond    int
	}{
		{n: 1, p50: 1, tail: 1, tailPct: 50, beyond: 0},
		{n: 2, p50: 1, tail: 1, tailPct: 50, beyond: 1},
		{n: 11, p50: 6, tail: 6, tailPct: 50, beyond: 5},
		// p90 of 99 samples is rank 90: 9 above, one short.
		{n: 99, p50: 50, tail: 50, tailPct: 50, beyond: 49},
		// p90 of 100 samples is rank 90: exactly 10 above.
		{n: 100, p50: 50, tail: 90, tailPct: 90, beyond: 10},
		{n: 999, p50: 500, tail: 900, tailPct: 90, beyond: 99},
		// p99 of 1000 samples is rank 990: exactly 10 above, so the
		// deep tail appears; the gated tail stays at p90.
		{n: 1000, p50: 500, tail: 900, tailPct: 90, beyond: 100, deep: 990, deepPct: 99, deepBeyond: 10},
		{n: 9999, p50: 5000, tail: 9000, tailPct: 90, beyond: 999, deep: 9900, deepPct: 99, deepBeyond: 99},
		// p99.9 of 10000 samples is rank 9990: exactly 10 above.
		{n: 10000, p50: 5000, tail: 9000, tailPct: 90, beyond: 1000, deep: 9990, deepPct: 99.9, deepBeyond: 10},
	}
	for _, c := range cases {
		got := Summarize(seq(c.n))
		want := Summary{N: c.n, P50: c.p50, Tail: c.tail, TailPct: c.tailPct, Beyond: c.beyond,
			Deep: c.deep, DeepPct: c.deepPct, DeepBeyond: c.deepBeyond}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", c.n, got, want)
		}
	}
}

func TestSummarizeLeavesInputAndHandlesEmpty(t *testing.T) {
	xs := []float64{3, 1, 2}
	if s := Summarize(xs); s.P50 != 2 || s.N != 3 {
		t.Fatalf("Summarize(3,1,2) = %+v, want median 2 of 3", s)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Summarize reordered its input: %v", xs)
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", s)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2 {
		t.Fatalf("nearest-rank median of 1..4 = %v, want 2", m)
	}
}

func TestErrorFrac(t *testing.T) {
	cases := []struct {
		attempted, failed int
		want              float64
	}{
		{attempted: 10, failed: 0, want: 0},
		{attempted: 10, failed: 1, want: 0.1},
		{attempted: 4, failed: 4, want: 1},
		{attempted: 0, failed: 0, want: 1},
	}
	for _, c := range cases {
		if got := ErrorFrac(c.attempted, c.failed); got != c.want {
			t.Errorf("ErrorFrac(%d, %d) = %v, want %v", c.attempted, c.failed, got, c.want)
		}
	}
}

func TestErrorFracCountsOperations(t *testing.T) {
	var o opCounter
	for _, err := range []error{nil, errWrong, nil, nil, nil} {
		o.note(err)
	}
	if o.attempted != 5 || o.failed != 1 {
		t.Fatalf("opCounter = %d attempted, %d failed; want 5, 1", o.attempted, o.failed)
	}
	if got := ErrorFrac(o.attempted, o.failed); got != 0.2 {
		t.Fatalf("error_frac = %v, want 0.2", got)
	}
}

func TestReconcile(t *testing.T) {
	rem, ok := Reconcile(100, []float64{30, 50, 15}, 0.05)
	if rem != 5 || !ok {
		t.Fatalf("Reconcile(100; 30+50+15) = %v, %v; want 5, true", rem, ok)
	}
	rem, ok = Reconcile(100, []float64{30, 50, 10}, 0.05)
	if rem != 10 || ok {
		t.Fatalf("Reconcile(100; 30+50+10) = %v, %v; want 10, false", rem, ok)
	}
	// Stages that overshoot the total leave a negative remainder; the
	// tolerance applies to its magnitude.
	rem, ok = Reconcile(100, []float64{60, 44}, 0.05)
	if math.Abs(rem+4) > 1e-9 || !ok {
		t.Fatalf("Reconcile(100; 60+44) = %v, %v; want -4, true", rem, ok)
	}
}
