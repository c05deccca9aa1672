package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"fattree/internal/obs"
)

// tracing holds a traced run's spans in memory: the daemon's own spans
// (fmgr.Config.Spans: rebuild → reroute → engine_tables, shift_hsd,
// wire_precompute; validate) and the spans the benchmark wraps around
// its calls into each layer. Both go to one Chrome trace, read back
// when the run ends.
type tracing struct {
	buf    bytes.Buffer
	tr     *obs.Tracer
	daemon *obs.SpanTracer
	bench  *obs.SpanTracer
}

const (
	pidDaemon = 1
	pidBench  = 2
)

func newTracing() *tracing {
	t := &tracing{}
	t.tr = obs.NewTracer(&t.buf)
	t.daemon = obs.NewSpanTracer(t.tr, pidDaemon, "ftfabricd")
	t.bench = obs.NewSpanTracer(t.tr, pidBench, "perfbench")
	return t
}

// daemonSpans is the span sink for a daemon: nil (spans off) when the
// run is untraced.
func (t *tracing) daemonSpans() *obs.SpanTracer {
	if t == nil {
		return nil
	}
	return t.daemon
}

// start opens a benchmark span around one layer call; nil-safe, so
// untraced runs pay one nil check.
func (t *tracing) start(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.bench.StartTrace(name)
}

// finish closes the trace and parses every span back.
func (t *tracing) finish() ([]spanRec, error) {
	if err := t.tr.Close(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return parseSpans(t.buf.Bytes())
}

func (t *tracing) writeTo(path string) error {
	if err := t.tr.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, t.buf.Bytes(), 0o644)
}

// spanRec is one finished span read back from the trace, with times in
// milliseconds on the trace clock.
type spanRec struct {
	Name   string
	Pid    int
	ID     string
	Parent string
	Start  float64
	Dur    float64
	// Self is Dur minus the part of it that child spans cover.
	Self float64
	Args map[string]any
}

func parseSpans(data []byte) ([]spanRec, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var spans []spanRec
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["span_id"].(string)
		parent, _ := ev.Args["parent_id"].(string)
		spans = append(spans, spanRec{
			Name: ev.Name, Pid: ev.Pid, ID: id, Parent: parent,
			Start: ev.Ts / 1e3, Dur: ev.Dur / 1e3, Args: ev.Args,
		})
	}
	selfTimes(spans)
	return spans, nil
}

// selfTimes sets each span's Self: its duration minus the union of its
// children's intervals, clipped to its own.
func selfTimes(spans []spanRec) {
	type key struct {
		pid int
		id  string
	}
	children := map[key][][2]float64{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Pid, s.Parent}
			children[k] = append(children[k], [2]float64{s.Start, s.Start + s.Dur})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.Dur - covered(children[key{s.Pid, s.ID}], s.Start, s.Start+s.Dur)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfMS returns the self times (ms) of every span called name on pid.
func selfMS(spans []spanRec, pid int, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Pid == pid && s.Name == name {
			out = append(out, s.Self)
		}
	}
	return out
}

// argNums returns the numeric argument key of every span called name.
func argNums(spans []spanRec, pid int, name, key string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Pid == pid && s.Name == name {
			if v, ok := s.Args[key].(float64); ok {
				out = append(out, v)
			}
		}
	}
	return out
}
