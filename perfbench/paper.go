package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fattree/internal/cps"
	"fattree/internal/exp"
	"fattree/internal/hsd"
	"fattree/internal/mpi"
	"fattree/internal/order"
	"fattree/internal/route"
	"fattree/internal/topo"
)

// paper-repro: the researcher's path. It regenerates the paper's
// Figure 2 at 324 hosts (packet-level netsim, sequential, default
// message sizes, a seeded random order) and Table 3 with the default
// case list (compile plus analytic HSD up to 1944 hosts, seeded partial
// jobs), alternating the two until the budget is spent.
const paperSetups = 3

func figure2Opts(seed int64) exp.Figure2Opts {
	o := exp.DefaultFigure2Opts()
	o.Cluster = topo.Cluster324
	o.Seed = seed
	return o
}

func table3Opts(seed int64) exp.Table3Opts {
	o := exp.DefaultTable3Opts()
	for i := range o.Cases {
		o.Cases[i].Seed = seed*int64(len(o.Cases)) + int64(i)
	}
	return o
}

// paperInputs builds what both regenerations start from: every
// topology they use and its D-Mod-K tables.
func paperInputs() ([]*route.LFT, error) {
	seen := map[string]bool{}
	var lfts []*route.LFT
	for _, g := range append([]topo.PGFT{topo.Cluster324}, clusters(exp.DefaultTable3Opts())...) {
		if seen[g.String()] {
			continue
		}
		seen[g.String()] = true
		t, err := topo.Build(g)
		if err != nil {
			return nil, err
		}
		lfts = append(lfts, route.DModK(t))
	}
	return lfts, nil
}

func clusters(o exp.Table3Opts) []topo.PGFT {
	var out []topo.PGFT
	for _, c := range o.Cases {
		out = append(out, c.Cluster)
	}
	return out
}

type paperTally struct {
	ops                     opCounter
	fig2MS, tab3MS, roundMS []float64
	rows                    int
	elapsed                 time.Duration
	fig2Rows                [][]string
	rdAbove                 []string // sizes where RD beat Shift
	errs                    []string
}

func runPaper(e *env) (*result, error) {
	res := newResult()
	var setups []float64
	var inputs []*route.LFT
	for i := 0; i < paperSetups; i++ {
		inputs = nil
		start := time.Now()
		var err error
		if inputs, err = paperInputs(); err != nil {
			return nil, err
		}
		setups = append(setups, msSince(start)/1e3)
	}
	res.named["setup_s"] = metric{Median(setups), "s"}
	res.named["heap_mib"] = metric{liveHeapMiB(), "MiB"}
	res.notes["setup_s_samples"] = setups

	budget := e.seconds
	if e.trace != nil {
		budget /= 2
	}
	proc := readProc()
	t := paperLoop(e.seed, budget)
	res.ops = t.ops
	if e.trace != nil {
		if err := paperLayers(res, e, t); err != nil {
			return nil, err
		}
	}
	res.recordProc(proc)
	runtime.KeepAlive(inputs)
	res.timing("figure2_s", "s", t.fig2MS)
	res.timing("table3_s", "s", t.tab3MS)
	res.timing("repro_s", "s", t.roundMS)
	res.named["rows_per_s"] = metric{float64(t.rows) / t.elapsed.Seconds(), "1/s"}
	res.slots = map[string]string{
		"setup_s": "setup_s", "heap_mib": "heap_mib",
		"lat_a_ms.p50": "figure2_s.p50", "lat_a_ms.tail": "figure2_s.tail",
		"lat_b_ms.p50": "table3_s.p50", "lat_b_ms.tail": "table3_s.tail",
		"lat_c_ms.p50": "repro_s.p50", "lat_c_ms.tail": "repro_s.tail",
		"rate_per_s": "rows_per_s",
	}
	if len(t.errs) > 0 {
		res.notes["errors"] = t.errs
	}
	res.notes["figure2_sizes_rd_above_shift"] = t.rdAbove
	res.check("paper-claims-hold", t.ops.failed == 0 && len(t.fig2MS) > 0 && len(t.tab3MS) > 0,
		"%d regenerations, %d with a failed claim (Table 3 ordered HSD 1.00; Figure 2 BW in (0,1], RD <= Shift over the curve; repeats identical)",
		t.ops.attempted, t.ops.failed)
	return res, nil
}

// paperLoop alternates Figure 2 and Table 3 regenerations while the
// budget lasts. A Figure 2 starts whenever budget remains; a Table 3,
// about twice as long, runs once in any case and after that only while
// the budget still has room for it, so the end of a run is filled with
// Figure 2s rather than overrun by a Table 3.
func paperLoop(seed int64, budget time.Duration) *paperTally {
	t := &paperTally{}
	start := time.Now()
	var lastT time.Duration
	for time.Since(start) < budget {
		roundStart := time.Now()
		tb, err := exp.Figure2(figure2Opts(seed))
		if err == nil {
			err = t.checkFigure2(tb)
		}
		t.ops.note(err)
		if err != nil {
			t.errs = append(t.errs, "figure 2: "+err.Error())
			break
		}
		t.fig2MS = append(t.fig2MS, msSince(roundStart))
		t.rows += len(tb.Rows)
		if len(t.tab3MS) > 0 && time.Since(start)+lastT > budget {
			continue
		}
		t0 := time.Now()
		tb, err = exp.Table3(table3Opts(seed))
		lastT = time.Since(t0)
		if err == nil {
			err = checkTable3(tb)
		}
		t.ops.note(err)
		if err != nil {
			t.errs = append(t.errs, "table 3: "+err.Error())
			break
		}
		t.tab3MS = append(t.tab3MS, msSince(t0))
		t.roundMS = append(t.roundMS, msSince(roundStart))
		t.rows += len(tb.Rows)
	}
	t.elapsed = time.Since(start)
	return t
}

// checkFigure2 holds the figure to the paper's shape: normalized
// bandwidth in (0, 1] at every size, Recursive-Doubling at or below
// Shift over the curve (mean over the sizes), and every regeneration for
// one seed identical to the first. The paper's claim is about the
// curves: with 8 sampled Shift stages at 324 hosts, 4 of 40 random
// orders put RD above Shift at one or two sizes, by at most 0.011,
// while RD's mean stayed at least 0.013 below Shift's on all 40. Those
// per-size crossings are counted in the record, not failed.
func (t *paperTally) checkFigure2(tb *exp.Table) error {
	if len(tb.Rows) == 0 {
		return fmt.Errorf("%w: no rows", errWrong)
	}
	var sumShift, sumRD float64
	for _, row := range tb.Rows {
		shift, err1 := strconv.ParseFloat(row[1], 64)
		rd, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%w: unparsable row %v", errWrong, row)
		}
		if shift <= 0 || shift > 1 || rd <= 0 || rd > 1 {
			return fmt.Errorf("%w: %s bytes: shift %v, recursive doubling %v", errWrong, row[0], shift, rd)
		}
		if rd > shift && t.fig2Rows == nil {
			t.rdAbove = append(t.rdAbove, fmt.Sprintf("%s bytes: shift %s, recursive doubling %s", row[0], row[1], row[2]))
		}
		sumShift += shift
		sumRD += rd
	}
	if sumRD > sumShift {
		return fmt.Errorf("%w: recursive doubling's mean normalized bandwidth %.3f above shift's %.3f",
			errWrong, sumRD/float64(len(tb.Rows)), sumShift/float64(len(tb.Rows)))
	}
	if t.fig2Rows == nil {
		t.fig2Rows = tb.Rows
	} else if fmt.Sprint(tb.Rows) != fmt.Sprint(t.fig2Rows) {
		return fmt.Errorf("%w: regeneration differs from the first for one seed: %v vs %v", errWrong, tb.Rows, t.fig2Rows)
	}
	return nil
}

// checkTable3 requires the proposed configuration's rows (Shift and
// topology-aware recursive doubling under the topology order) to read
// HSD 1.00 in every case.
func checkTable3(tb *exp.Table) error {
	if len(tb.Rows) != len(exp.DefaultTable3Opts().Cases) {
		return fmt.Errorf("%w: %d rows", errWrong, len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[3] != "1.00" || row[4] != "1.00" {
			return fmt.Errorf("%w: %s: shift HSD %s, topo-RD HSD %s", errWrong, row[0], row[3], row[4])
		}
	}
	return nil
}

// paperLayers runs the traced half: one traced regeneration of each
// artifact, then a replay of their layer calls through the public APIs
// with a span around each — Table 3's topology build, compile and
// analytic HSD per case, and Figure 2's simulations, twice, so the
// simulator's event count can be checked for determinism.
func paperLayers(res *result, e *env, plain *paperTally) error {
	tr := e.trace
	sp := tr.start("exp.figure2")
	t0 := time.Now()
	_, err := exp.Figure2(figure2Opts(e.seed))
	sp.End()
	fig2Traced := msSince(t0)
	if err != nil {
		return err
	}
	sp = tr.start("exp.table3")
	_, err = exp.Table3(table3Opts(e.seed))
	sp.End()
	if err != nil {
		return err
	}
	if err := replayTable3(tr, table3Opts(e.seed)); err != nil {
		return err
	}
	var events [2]uint64
	for i := range events {
		if events[i], err = replayFigure2(tr, figure2Opts(e.seed), plain.fig2Rows, i == 0); err != nil {
			return err
		}
	}
	res.check("des-events-repeat", events[0] == events[1] && events[0] > 0,
		"Figure 2 replays executed %d and %d simulator events", events[0], events[1])
	spans, err := tr.finish()
	if err != nil {
		return err
	}
	res.layer("topo.build_ms", sumSelf(spans, "table3.topo_build"), "ms")
	res.layer("route.compile_ms", sumSelf(spans, "table3.route_compile"), "ms")
	res.layer("hsd.analyze_ms", sumSelf(spans, "table3.hsd_analyze"), "ms")
	var simMS, evs, allocMiB []float64
	rebases, maxPending := 0.0, 0.0
	for _, s := range spans {
		if s.Pid != pidBench || s.Name != "netsim.simulate" || s.Args["pass"].(float64) != 0 {
			continue
		}
		name := fmt.Sprintf("netsim.simulate_ms.%s.%d", s.Args["collective"], int64(s.Args["bytes"].(float64)))
		res.layer(name, s.Self, "ms")
		simMS = append(simMS, s.Self)
		evs = append(evs, s.Args["events"].(float64))
		allocMiB = append(allocMiB, s.Args["alloc_mib"].(float64))
		rebases += s.Args["cal_rebases"].(float64)
		maxPending = max(maxPending, s.Args["max_pending"].(float64))
	}
	totalEv, totalMS := 0.0, 0.0
	for i := range evs {
		totalEv += evs[i]
		totalMS += simMS[i]
	}
	res.layer("des.events", totalEv, "count")
	if totalMS > 0 {
		res.layer("netsim.events_per_s", totalEv/(totalMS/1e3), "1/s")
	}
	res.layer("des.cal_rebases", rebases, "count")
	res.layer("des.max_pending", maxPending, "count")
	res.layer("netsim.alloc_mib", mean(allocMiB), "MiB")
	res.layer("trace.overhead_ms", fig2Traced-Median(plain.fig2MS), "ms")
	var entries []float64
	for _, s := range spans {
		if s.Pid == pidBench && s.Name == "table3.route_compile" {
			entries = append(entries, s.Args["entries"].(float64))
		}
	}
	res.layer("route.path_entries", mean(entries), "count")
	perCase := map[string]map[string]float64{}
	for _, s := range spans {
		if c, ok := s.Args["case"].(string); ok && s.Pid == pidBench {
			if perCase[c] == nil {
				perCase[c] = map[string]float64{}
			}
			perCase[c][strings.TrimPrefix(s.Name, "table3.")+"_ms"] += s.Self
		}
	}
	res.notes["table3_per_case"] = perCase
	fillIdle(res)
	return nil
}

func sumSelf(spans []spanRec, name string) float64 {
	total := 0.0
	for _, ms := range selfMS(spans, pidBench, name) {
		total += ms
	}
	return total
}

// replayTable3 re-runs each Table 3 case's layer calls — build the
// topology, compile the rank-compacted D-Mod-K paths, analyze the Shift
// under the topology order — and checks the HSD is 1 again.
func replayTable3(tr *tracing, o exp.Table3Opts) error {
	for _, c := range o.Cases {
		sp := tr.start("table3.topo_build")
		sp.TagStr("case", c.Name)
		t, err := topo.Build(c.Cluster)
		sp.End()
		if err != nil {
			return err
		}
		n := t.NumHosts()
		active := activeHosts(n, c.Drop, c.Seed)
		sp = tr.start("table3.route_compile")
		sp.TagStr("case", c.Name)
		lft, err := route.DModKActive(t, active)
		var comp *route.Compiled
		if err == nil {
			comp, err = route.Compile(lft)
		}
		if err == nil {
			sp.TagNum("entries", float64(comp.NumEntries()))
		}
		sp.End()
		if err != nil {
			return err
		}
		sp = tr.start("table3.hsd_analyze")
		sp.TagStr("case", c.Name)
		rep, err := hsd.AnalyzeParallel(comp, order.Topology(n, active), cps.Shift(len(active)), 0)
		sp.End()
		if err != nil {
			return err
		}
		if rep.AvgMaxHSD() != 1 {
			return fmt.Errorf("%w: replayed %s Shift HSD %v", errWrong, c.Name, rep.AvgMaxHSD())
		}
	}
	return nil
}

// activeHosts mirrors Table 3's partial-job draw: drop hosts chosen by
// a seeded permutation, keep the rest in ascending order.
func activeHosts(n, drop int, seed int64) []int {
	dropped := make([]bool, n)
	if drop > 0 {
		for _, h := range rand.New(rand.NewSource(seed)).Perm(n)[:drop] {
			dropped[h] = true
		}
	}
	var out []int
	for h := 0; h < n; h++ {
		if !dropped[h] {
			out = append(out, h)
		}
	}
	return out
}

// replayFigure2 re-runs Figure 2's simulations through mpi.Job, one
// span per (collective, size) carrying the simulator's counters, and
// checks the normalized bandwidths against the regenerated figure. It
// returns the total simulator event count.
func replayFigure2(tr *tracing, o exp.Figure2Opts, rows [][]string, first bool) (uint64, error) {
	t, err := topo.Build(o.Cluster)
	if err != nil {
		return 0, err
	}
	n := t.NumHosts()
	job, err := mpi.NewJob(route.DModK(t), order.Random(n, nil, o.Seed))
	if err != nil {
		return 0, err
	}
	shift := cps.Sequence(cps.Shift(n))
	if o.ShiftStages > 0 && o.ShiftStages < shift.NumStages() {
		idx := make([]int, o.ShiftStages)
		step := shift.NumStages() / o.ShiftStages
		for i := range idx {
			idx[i] = i * step
		}
		if shift, err = mpi.SampleStages(shift, idx); err != nil {
			return 0, err
		}
	}
	seqs := []struct {
		name string
		seq  cps.Sequence
	}{{"shift", shift}, {"recursive-doubling", cps.RecursiveDoubling(n)}}
	pass := 1.0
	if first {
		pass = 0
	}
	var total uint64
	for i, size := range o.Sizes {
		for j, s := range seqs {
			allocBefore := totalAlloc()
			sp := tr.start("netsim.simulate")
			st, err := job.Simulate(s.seq, size, false, o.Config)
			sp.TagStr("collective", s.name)
			sp.TagNum("bytes", float64(size))
			sp.TagNum("pass", pass)
			sp.TagNum("events", float64(st.Events))
			sp.TagNum("alloc_mib", float64(totalAlloc()-allocBefore)/(1<<20))
			var rebases uint64
			maxPending := 0
			for _, sh := range st.Shards {
				rebases += sh.CalRebases
				maxPending = max(maxPending, sh.MaxPending)
			}
			sp.TagNum("cal_rebases", float64(rebases))
			sp.TagNum("max_pending", float64(maxPending))
			sp.End()
			if err != nil {
				return 0, err
			}
			total += st.Events
			if i < len(rows) {
				if got := fmt.Sprintf("%.3f", job.NormalizedBandwidth(st, o.Config)); got != rows[i][1+j] {
					return 0, fmt.Errorf("%w: replayed %s at %d bytes gives %s, figure says %s", errWrong, s.name, size, got, rows[i][1+j])
				}
			}
		}
	}
	return total, nil
}
