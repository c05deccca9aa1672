package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchDoc mirrors BENCHMARK.json at the repository root.
type benchDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// tables the benchmark reports from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated metric name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name, "")
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars) vs code %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}

	if len(doc.EndToEnd) != len(contractMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code reports %d", len(doc.EndToEnd), len(contractMetrics))
	}
	largest := 0.0
	for i, m := range doc.EndToEnd {
		checkName(m.Name, m.Unit)
		c := contractMetrics[i]
		if m.Name != c.name || m.Unit != c.unit {
			t.Errorf("end_to_end %d: %s [%s] vs code %s [%s]", i, m.Name, m.Unit, c.name, c.unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != largest || m.Better != "lower") {
			t.Errorf("setup_s must be lower-is-better with the largest bound")
		}
	}

	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code reports %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name, m.Unit)
		l := layerMetrics[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per_layer %d: %+v vs code %s [%s] %s", i, m, l.name, l.unit, l.better)
		}
	}
}

// TestContractLineReportsEveryMetric checks the result line converts
// each slot's metric to the contract unit, refuses a unit it cannot
// convert, and turns a failed gate into correct=false.
func TestContractLineReportsEveryMetric(t *testing.T) {
	res := newResult()
	res.ops.note(nil)
	res.named["setup_s"] = metric{1.5, "s"}
	res.named["x_us.p50"] = metric{250, "us"}
	for _, c := range contractMetrics {
		res.slots[c.name] = "x_us.p50"
	}
	res.slots["setup_s"] = "setup_s"
	res.slots["heap_mib"] = "setup_s"
	if _, _, err := contractLine(res, false); err == nil {
		t.Fatal("a seconds metric feeding the MiB slot was accepted")
	}
	res.named["heap_mib"] = metric{3, "MiB"}
	res.named["rate"] = metric{7, "1/s"}
	res.slots["heap_mib"] = "heap_mib"
	res.slots["rate_per_s"] = "rate"
	line, correct, err := contractLine(res, false)
	if err != nil || !correct {
		t.Fatalf("contractLine = %q, %v, %v", line, correct, err)
	}
	var out struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != len(contractMetrics) || out.Metrics["lat_a_ms.p50"].Value != 0.25 {
		t.Fatalf("metrics = %v; want every contract metric, lat_a_ms.p50 = 0.25 ms", out.Metrics)
	}
	res.check("gate", false, "failed on purpose")
	if _, correct, _ := contractLine(res, false); correct {
		t.Fatal("a failed gate still reported correct")
	}
}
