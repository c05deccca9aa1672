// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload against the public
// APIs of the fabric manager, its binary wire protocol and client, and
// the paper-reproduction pipeline, checks the answers, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object {correct, attempted, failed, metrics}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fabric-churn-1944 --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the daemon runs as ftfabricd deploys it (metrics on,
// spans off) and the result carries the end-to-end metrics. With
// --trace 1 the run is split: the first half untraced, the second half
// with spans recorded around every layer call, and the result carries
// the per-layer metrics (see README.md for what each one should move).
// -cpuprofile and -memprofile tie a layer's span to functions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"fattree/internal/obs/prof"
)

// workload is one named input set the benchmark can run.
type workload struct {
	name string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{name: "fabric-churn-1944", run: runChurn},
	{name: "route-serve-324", run: runServe},
	{name: "paper-repro", run: runPaper},
}

// env is what a workload gets: its seed, its measurement budget and,
// in a traced run, the tracer. The program under test only ever sees
// inputs generated from rng.
type env struct {
	seed    int64
	rng     *rand.Rand
	seconds time.Duration
	trace   *tracing // nil when untraced
}

// errWrong marks an operation whose answer failed a correctness check.
var errWrong = errors.New("wrong answer")

// opCounter tallies operations for the result's attempted/failed counts.
type opCounter struct{ attempted, failed int }

func (o *opCounter) note(err error) {
	o.attempted++
	if err != nil {
		o.failed++
	}
}

func (o *opCounter) add(p opCounter) {
	o.attempted += p.attempted
	o.failed += p.failed
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run measured.
type result struct {
	ops opCounter
	// gates are the correctness checks; any failure makes the run
	// incorrect and the exit status non-zero.
	gates []gate
	// named holds the workload's end-to-end metrics under their own
	// names (fault_to_serve_ms.p50, routes_per_s, ...), timings with
	// their sample counts.
	named   map[string]metric
	timings map[string]Summary
	// slots maps the workload's metrics onto the contract names every
	// workload reports (see contractMetrics).
	slots map[string]string
	// layers holds the per-layer metrics of a traced run.
	layers map[string]metric
	// notes carries context recorded beside the metrics (mix shares,
	// per-case breakdowns).
	notes map[string]any
}

func newResult() *result {
	return &result{
		named:   map[string]metric{},
		timings: map[string]Summary{},
		slots:   map[string]string{},
		layers:  map[string]metric{},
		notes:   map[string]any{},
	}
}

type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.gates = append(r.gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// timing records a latency distribution in milliseconds under name
// (whose suffix is its display unit) and its .p50/.tail metrics.
func (r *result) timing(name, unit string, samplesMS []float64) {
	s := Summarize(samplesMS)
	r.timings[name] = s
	scale := 1.0
	switch unit {
	case "us":
		scale = 1e3
	case "s":
		scale = 1e-3
	}
	r.named[name+".p50"] = metric{s.P50 * scale, unit}
	r.named[name+".tail"] = metric{s.Tail * scale, unit}
	if s.DeepPct > 0 {
		r.named[name+".deep"] = metric{s.Deep * scale, unit}
	}
	if s.N <= 64 {
		r.notes[name+"_samples_ms"] = samplesMS
	}
}

func (r *result) layer(name string, v float64, unit string) {
	r.layers[name] = metric{v, unit}
}

// contractMetrics are the end-to-end metrics every workload reports,
// in the units BENCHMARK.json declares. Each workload maps its own
// metrics onto them through result.slots.
var contractMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mib", "MiB"},
	{"lat_a_ms.p50", "ms"}, {"lat_a_ms.tail", "ms"},
	{"lat_b_ms.p50", "ms"}, {"lat_b_ms.tail", "ms"},
	{"lat_c_ms.p50", "ms"}, {"lat_c_ms.tail", "ms"},
	{"rate_per_s", "1/s"},
}

// contractValue converts a workload metric to the contract slot's unit.
func contractValue(m metric, unit string) (float64, error) {
	if m.Unit == unit {
		return m.Value, nil
	}
	switch {
	case m.Unit == "us" && unit == "ms":
		return m.Value / 1e3, nil
	case m.Unit == "s" && unit == "ms":
		return m.Value * 1e3, nil
	}
	return 0, fmt.Errorf("cannot convert %s to %s", m.Unit, unit)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 35, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer breakdown, 0 the untraced end-to-end run")
	pf := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// run.sh names the directory for the full record of the run (and,
	// traced, its spans); without it only standard output is written.
	var recordPath, tracePath string
	if dir := os.Getenv("PERFBENCH_RECORD_DIR"); dir != "" {
		base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced))
		recordPath = base + ".json"
		if *traced == 1 {
			tracePath = base + ".trace.json"
		}
	}
	if err := pf.Start(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{seed: *seed, rng: rand.New(rand.NewSource(*seed)), seconds: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		e.trace = newTracing()
	}
	res, err := w.run(e)
	if perr := pf.Stop(); err == nil {
		err = perr
	}
	if err == nil && tracePath != "" {
		err = e.trace.writeTo(tracePath)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, correct, err := contractLine(res, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	host := fingerprint(*seed)
	report(stdout, w.name, host, res)
	if recordPath != "" {
		if err := writeRecord(recordPath, w.name, *traced == 1, host, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// contractLine renders the final result line: the contract's end-to-end
// metrics for an untraced run, the per-layer ones for a traced run.
func contractLine(res *result, traced bool) (string, bool, error) {
	correct := res.ops.attempted > 0
	for _, g := range res.gates {
		correct = correct && g.OK
	}
	metrics := map[string]metric{}
	if traced {
		for _, l := range layerMetrics {
			m, ok := res.layers[l.name]
			if !ok {
				return "", false, fmt.Errorf("traced run did not measure per-layer metric %s", l.name)
			}
			metrics[l.name] = metric{m.Value, l.unit}
		}
	} else {
		for _, c := range contractMetrics {
			src, ok := res.slots[c.name]
			if !ok {
				return "", false, fmt.Errorf("no workload metric feeds %s", c.name)
			}
			m, ok := res.named[src]
			if !ok {
				return "", false, fmt.Errorf("metric %s (for %s) was not measured", src, c.name)
			}
			v, err := contractValue(m, c.unit)
			if err != nil {
				return "", false, fmt.Errorf("%s from %s: %w", c.name, src, err)
			}
			metrics[c.name] = metric{v, c.unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.ops.attempted, res.ops.failed, metrics})
	return string(b), correct, err
}

// report prints the human-readable result: the host, every named metric
// with its unit and sample count, and every gate.
func report(w io.Writer, name string, host hostInfo, res *result) {
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "workload %s host %s\n", name, hb)
	fmt.Fprintf(w, "  %-34s %14d\n", "attempted", res.ops.attempted)
	fmt.Fprintf(w, "  %-34s %14.6f\n", "error_frac", ErrorFrac(res.ops.attempted, res.ops.failed))
	for _, k := range sortedKeys(res.named) {
		m := res.named[k]
		extra := ""
		base, _, _ := strings.Cut(k, ".")
		if s, ok := res.timings[base]; ok {
			switch strings.TrimPrefix(k, base) {
			case ".p50":
				extra = fmt.Sprintf("  (n=%d)", s.N)
			case ".tail":
				extra = fmt.Sprintf("  (p%g, n=%d, %d beyond)", s.TailPct, s.N, s.Beyond)
			case ".deep":
				extra = fmt.Sprintf("  (p%g, n=%d, %d beyond; not gated)", s.DeepPct, s.N, s.DeepBeyond)
			}
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-5s%s\n", k, m.Value, m.Unit, extra)
	}
	for _, k := range sortedKeys(res.slots) {
		fmt.Fprintf(w, "  contract %-25s <- %s\n", k, res.slots[k])
	}
	for _, k := range sortedKeys(res.layers) {
		m := res.layers[k]
		fmt.Fprintf(w, "  layer %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, g := range res.gates {
		status := "ok  "
		if !g.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  gate %s %s: %s\n", status, g.Name, g.Detail)
	}
}

func writeRecord(path, name string, traced bool, host hostInfo, res *result) error {
	rec := map[string]any{
		"schema":     "fattree-perfbench/v1",
		"workload":   name,
		"traced":     traced,
		"host":       host,
		"attempted":  res.ops.attempted,
		"failed":     res.ops.failed,
		"error_frac": ErrorFrac(res.ops.attempted, res.ops.failed),
		"metrics":    res.named,
		"timings":    res.timings,
		"contract":   res.slots,
		"layers":     res.layers,
		"gates":      res.gates,
		"notes":      res.notes,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostInfo fingerprints the machine and code a result came from; runs
// from unlike hosts are never compared.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func fingerprint(seed int64) hostInfo {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// procUsage is the process's CPU time and GC count at one instant; the
// difference across a measurement window is a steal-insensitive
// companion to its wall-clock metrics.
type procUsage struct {
	cpu time.Duration
	gcs uint32
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcs: ms.NumGC,
	}
}

// recordProc reports the CPU seconds and GC cycles spent since start.
func (r *result) recordProc(start procUsage) {
	end := readProc()
	r.layer("proc.cpu_s", (end.cpu - start.cpu).Seconds(), "s")
	r.layer("proc.gc_cycles", float64(end.gcs-start.gcs), "count")
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// msSince is the elapsed time since t in milliseconds.
func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
