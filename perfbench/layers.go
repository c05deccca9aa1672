package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"

	"fattree/internal/fabric"
	"fattree/internal/fmgr"
	"fattree/internal/invariant"
	"fattree/internal/route"
	"fattree/internal/sched"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// layerMetric is one per-layer metric of a traced run and the
// end-to-end metrics it should move. A time is the mean self time per
// call of the layer's spans (total busy time over calls), so stage
// times add up along a blocking path. A layer a workload never calls
// reports 0 there: the prediction for that pairing is "unchanged".
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = []layerMetric{
	{"fmgr.queue_wait_ms", "ms", "lower", "fault_to_serve_ms.*, job_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.reroute_ms", "ms", "lower", "fault_to_serve_ms.*, job_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.validate_ms", "ms", "lower", "fault_to_serve_ms.*, job_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.swap_to_wire_ms", "ms", "lower", "fault_to_serve_ms.*, job_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.unattributed_ms", "ms", "lower", "fault_to_serve_ms.*, job_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.rebuilds_per_event", "count", "lower", "fault_to_serve_ms.* on fabric-churn-1944 (burst coalescing)"},
	{"fmgr.rebuild_alloc_mib", "MiB", "lower", "fault_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.rebuild_failures", "ratio", "lower", "error_frac on every daemon workload"},
	{"engine.tables_ms", "ms", "lower", "fault_to_serve_ms.* on fabric-churn-1944; unchanged on route-serve-324"},
	{"fabric.route_around_ms", "ms", "lower", "fault_to_serve_ms.* on fabric-churn-1944; unchanged on route-serve-324"},
	{"route.compile_lenient_ms", "ms", "lower", "fault_to_serve_ms.* on fabric-churn-1944; unchanged on route-serve-324"},
	{"hsd.shift_summary_ms", "ms", "lower", "fault_to_serve_ms.* on fabric-churn-1944; unchanged on route-serve-324"},
	{"invariant.lenient_arena_ms", "ms", "lower", "fault_to_serve_ms.* on fabric-churn-1944; unchanged on route-serve-324"},
	{"wire.precompute_ms", "ms", "lower", "job_to_serve_ms.* on fabric-churn-1944, route_fetch_ms.* on route-serve-324"},
	{"wire.job_frame_bytes", "bytes", "lower", "job_to_serve_ms.* on fabric-churn-1944, route_fetch_ms.* on route-serve-324"},
	{"route.path_entries", "count", "lower", "heap_mib, fault_to_serve_ms.* on fabric-churn-1944; table3_s on paper-repro"},
	{"route.broken_pairs", "count", "lower", "context for fault_to_serve_ms.* on fabric-churn-1944"},
	{"sched.alloc_us", "us", "lower", "job_to_serve_ms.* on fabric-churn-1944"},
	{"fmgr.wire_server_us.epoch", "us", "lower", "route_warm_us.* on route-serve-324"},
	{"fmgr.wire_server_us.route_set", "us", "lower", "route_fetch_ms.*, pairs_batch_us.* on route-serve-324"},
	{"fclient.overhead_us.warm", "us", "lower", "route_warm_us.* on route-serve-324"},
	{"fclient.overhead_us.fetch", "us", "lower", "route_fetch_ms.* on route-serve-324"},
	{"fclient.overhead_us.pairs", "us", "lower", "pairs_batch_us.* on route-serve-324"},
	{"wire.decode_ms", "ms", "lower", "route_fetch_ms.* on route-serve-324"},
	{"wire.decode_allocs", "count", "lower", "route_fetch_ms.* on route-serve-324"},
	{"route.packed_path_ns", "ns", "lower", "pairs_batch_us.* on route-serve-324"},
	{"fclient.cache_hit_ratio", "ratio", "higher", "route_warm_us.*, routes_per_s on route-serve-324"},
	{"fclient.epoch_regressions", "count", "lower", "error_frac on route-serve-324 (must be 0)"},
	{"fmgr.background_rebuilds", "count", "lower", "route_warm_us.tail, route_fetch_ms.tail, pairs_batch_us.tail on route-serve-324"},
	{"route.compile_ms", "ms", "lower", "table3_s on paper-repro; unchanged on figure2_s"},
	{"hsd.analyze_ms", "ms", "lower", "table3_s on paper-repro; unchanged on figure2_s"},
	{"topo.build_ms", "ms", "lower", "table3_s, setup_s on paper-repro; unchanged on figure2_s"},
	{"netsim.simulate_ms.shift.8192", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.shift.32768", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.shift.131072", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.shift.524288", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.shift.2097152", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.recursive-doubling.8192", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.recursive-doubling.32768", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.recursive-doubling.131072", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.recursive-doubling.524288", "ms", "lower", "figure2_s on paper-repro"},
	{"netsim.simulate_ms.recursive-doubling.2097152", "ms", "lower", "figure2_s on paper-repro"},
	{"des.events", "count", "lower", "figure2_s on paper-repro; unchanged on both daemon workloads"},
	{"netsim.events_per_s", "1/s", "higher", "figure2_s on paper-repro; unchanged on both daemon workloads"},
	{"des.cal_rebases", "count", "lower", "figure2_s on paper-repro; unchanged on both daemon workloads"},
	{"des.max_pending", "count", "lower", "figure2_s on paper-repro; unchanged on both daemon workloads"},
	{"netsim.alloc_mib", "MiB", "lower", "figure2_s on paper-repro; unchanged on both daemon workloads"},
	{"proc.cpu_s", "s", "lower", "every wall-clock metric on every workload (steal-insensitive companion)"},
	{"proc.gc_cycles", "count", "lower", "every wall-clock metric and heap_mib on every workload"},
	{"trace.overhead_ms", "ms", "lower", "none: traced minus untraced median of the workload's lat_a metric"},
	{"mix.burst_share", "ratio", "higher", "none: share of fabric-churn-1944 fault events that were switch bursts"},
	{"mix.refetch_share", "ratio", "higher", "none: share of route-serve-324 warm reads that became refetches"},
}

// fillIdle reports 0 for every per-layer metric the workload never
// exercised, so each traced run carries the whole set.
func fillIdle(res *result) {
	for _, l := range layerMetrics {
		if _, ok := res.layers[l.name]; !ok {
			res.layers[l.name] = metric{0, l.unit}
		}
	}
}

// meanSelf is the mean self time (ms) of a layer's spans, 0 if none ran.
func meanSelf(spans []spanRec, pid int, name string) float64 {
	return mean(selfMS(spans, pid, name))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// replayRebuild re-runs, outside the event loop and each inside its own
// span, the public layer calls a rebuild made for snapshot st: the
// D-Mod-K reroute and lenient compile of its fault set, the invariant
// check validate runs, and a sample of packed-path lookups. The replayed
// arena must agree with the served one.
func replayRebuild(tr *tracing, st *fmgr.FabricState) error {
	if len(st.FailedLinks) > 0 {
		fs := fabric.NewFaultSet(st.Topo)
		for _, l := range st.FailedLinks {
			fs.Fail(l)
		}
		sp := tr.start("fabric.route_around")
		lft, _, err := fs.RouteAround()
		sp.End()
		if err != nil {
			return fmt.Errorf("route around: %w", err)
		}
		sp = tr.start("route.compile_lenient")
		c, err := route.CompileLenient(lft)
		sp.End()
		if err != nil {
			return fmt.Errorf("compile lenient: %w", err)
		}
		if c.NumBroken() != st.Paths.NumBroken() || c.NumEntries() != st.Paths.NumEntries() {
			return fmt.Errorf("%w: replayed arena has %d broken / %d entries, served %d / %d",
				errWrong, c.NumBroken(), c.NumEntries(), st.Paths.NumBroken(), st.Paths.NumEntries())
		}
	}
	sp := tr.start("invariant.lenient_arena")
	err := invariant.LenientArena(st.Topo, st.Paths, st.HostUnroutable)
	sp.End()
	if err != nil {
		return fmt.Errorf("%w: served arena fails validation: %v", errWrong, err)
	}
	timePackedPaths(tr, st.Paths, int64(st.Epoch))
	return nil
}

// packedLookups is how many PackedPath calls one route.packed_path span
// times; enough to dwarf the span's own cost.
const packedLookups = 4096

func timePackedPaths(tr *tracing, c *route.Compiled, seed int64) {
	n := c.Topology().NumHosts()
	r := rand.New(rand.NewSource(seed))
	pairs := make([][2]int, packedLookups)
	for i := range pairs {
		pairs[i] = [2]int{r.Intn(n), r.Intn(n)}
	}
	sp := tr.start("route.packed_path")
	for _, p := range pairs {
		if p[0] == p[1] || c.Broken(p[0], p[1]) {
			continue
		}
		_, _ = c.PackedPath(p[0], p[1]) // only the lookup's cost is measured
	}
	sp.TagNum("lookups", packedLookups)
	sp.End()
}

// packedPathNS is the mean cost of one PackedPath lookup.
func packedPathNS(spans []spanRec) float64 {
	total, lookups := 0.0, 0.0
	for _, s := range spans {
		if s.Pid == pidBench && s.Name == "route.packed_path" {
			total += s.Dur
			lookups += s.Args["lookups"].(float64)
		}
	}
	if lookups == 0 {
		return 0
	}
	return total * 1e6 / lookups
}

// replayAlloc times the allocator placing a job of size next to the
// standing one, as the event loop did.
func replayAlloc(tr *tracing, t *topo.Topology, standing, size int) {
	a, err := sched.New(t)
	if err != nil {
		return
	}
	if standing > 0 {
		if _, err := a.Alloc(standing); err != nil {
			return
		}
	}
	sp := tr.start("sched.alloc")
	_, err = a.Alloc(size)
	sp.End()
}

// timeDecode pushes one captured frame through the client's decoder:
// once untimed to count its heap allocations, then three timed decodes.
func timeDecode(tr *tracing, frame []byte) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msg, err := wire.ReadMessage(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("decode captured frame: %w", err)
	}
	if _, ok := msg.(*wire.RouteSetResp); !ok {
		return fmt.Errorf("%w: captured job frame decodes to %T", errWrong, msg)
	}
	allocs := float64(after.Mallocs - before.Mallocs)
	for i := 0; i < 3; i++ {
		sp := tr.start("wire.decode")
		_, err := wire.ReadMessage(bytes.NewReader(frame))
		sp.TagNum("allocs", allocs)
		sp.End()
		if err != nil {
			return fmt.Errorf("decode captured frame: %w", err)
		}
	}
	return nil
}
