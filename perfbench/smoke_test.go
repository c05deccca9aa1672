package main

import (
	"math/rand"
	"testing"
	"time"
)

// TestRouteServeSmoke runs the read workload briefly, traced, so its
// concurrent clients, fault stream and swap log run under the race
// detector and every gate and per-layer metric is exercised.
func TestRouteServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload for two seconds")
	}
	e := &env{seed: 1, rng: rand.New(rand.NewSource(1)), seconds: 2 * time.Second, trace: newTracing()}
	res, err := runServe(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.gates {
		if !g.OK {
			t.Errorf("gate %s failed: %s", g.Name, g.Detail)
		}
	}
	if _, correct, err := contractLine(res, true); err != nil || !correct {
		t.Fatalf("traced result line: correct=%v err=%v", correct, err)
	}
}
