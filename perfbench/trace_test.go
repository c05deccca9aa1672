package main

import (
	"math"
	"testing"

	"fattree/internal/obs"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []spanRec{
		{Name: "rebuild", Pid: 1, ID: "1", Start: 0, Dur: 10},
		// Overlapping children count once; a child running past its
		// parent's end is clipped to the parent.
		{Name: "a", Pid: 1, ID: "2", Parent: "1", Start: 1, Dur: 2},
		{Name: "b", Pid: 1, ID: "3", Parent: "1", Start: 2, Dur: 3},
		{Name: "c", Pid: 1, ID: "4", Parent: "1", Start: 9, Dur: 4},
		// Same IDs under another pid belong to another tracer.
		{Name: "other", Pid: 2, ID: "2", Parent: "1", Start: 0, Dur: 10},
	}
	selfTimes(spans)
	want := map[string]float64{"rebuild": 10 - 4 - 1, "a": 2, "b": 3, "c": 4, "other": 10}
	for _, s := range spans {
		if math.Abs(s.Self-want[s.Name]) > 1e-9 {
			t.Errorf("%s: self %v, want %v", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestTracingRoundTrip(t *testing.T) {
	tr := newTracing()
	root := tr.daemon.StartTrace("rebuild")
	child := root.Child("validate")
	child.End()
	root.End()
	sp := tr.start("wire.decode")
	sp.TagNum("allocs", 42)
	sp.End()
	spans, err := tr.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("parsed %d spans, want 3", len(spans))
	}
	if got := argNums(spans, pidBench, "wire.decode", "allocs"); len(got) != 1 || got[0] != 42 {
		t.Fatalf("wire.decode allocs = %v, want [42]", got)
	}
	for _, s := range spans {
		if s.Self < 0 || s.Self > s.Dur {
			t.Errorf("%s: self %v outside [0, %v]", s.Name, s.Self, s.Dur)
		}
	}
	var nilTracing *tracing
	if nilTracing.start("x") != nil || nilTracing.daemonSpans() != (*obs.SpanTracer)(nil) {
		t.Fatal("an untraced run must hand out nil spans")
	}
}
