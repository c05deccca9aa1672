package main

import (
	"fmt"
	"runtime"
	"time"

	"fattree/internal/fclient"
	"fattree/internal/fmgr"
	"fattree/internal/sched"
	"fattree/internal/topo"
)

// fabric-churn-1944: the write path at the paper's 1944-host cluster.
// One standing half-machine job, then a seeded closed loop with one
// outstanding event at a time: a fabric-link fail or revive, a burst
// failing (or reviving) every fabric link of one switch at once, or a
// job between one leaf and a quarter of the machine placed or freed.
// Each event is timed from the manager call until an epoch probe over
// the wire answers an epoch whose snapshot reflects it.
const (
	churnStanding = 972 // half the machine
	churnMinJob   = 18  // one leaf
	churnMaxJob   = 486 // a quarter of the machine
	churnSetups   = 3
	eventTimeout  = 30 * time.Second
	pollEvery     = time.Millisecond
)

// churnDeck is the mix of fresh events: each run deals them in seeded
// order, one shuffled deck after another, so every seed gets the same
// shares (25% jobs, 25% switch bursts, 50% single links) and only the
// order, links, switches and job sizes vary. Drawn independently, the
// number of job events in a run swung from 6 to 18 between seeds, and
// with it the job median and the event rate.
var churnDeck = []string{"job", "burst", "link", "link"}

// churnRig is one booted 1944-host daemon with its standing job and the
// client that watches it.
type churnRig struct {
	t        *topo.Topology
	d        *daemon
	cl       *fclient.Client
	standing uint64
	switches [][]topo.LinkID // fabric links of each switch above the leaves
	links    []topo.LinkID   // every fabric (switch-to-switch) link
}

func bootChurn(tr *tracing) (*churnRig, error) {
	t, err := topo.Build(topo.Cluster1944)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(t, tr.daemonSpans(), false)
	if err != nil {
		return nil, err
	}
	rig := &churnRig{t: t, d: d}
	if rig.cl, err = d.client(); err != nil {
		d.close()
		return nil, err
	}
	a, err := d.m.AllocJob(churnStanding, false)
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("standing job: %w", err)
	}
	rig.standing = uint64(a.ID)
	var probes []float64
	if _, _, err := d.waitServed(rig.cl, 0, func(s *swapInfo) bool { return s.jobs[rig.standing] != nil },
		eventTimeout, pollEvery, &probes); err != nil {
		rig.close()
		return nil, fmt.Errorf("standing job never served: %w", err)
	}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Level < 2 {
			continue
		}
		var ls []topo.LinkID
		for _, p := range append(append([]topo.PortID(nil), n.Up...), n.Down...) {
			if l := t.Ports[p].Link; l != topo.None {
				ls = append(ls, l)
			}
		}
		rig.switches = append(rig.switches, ls)
	}
	for _, l := range t.Links {
		if l.Level >= 2 {
			rig.links = append(rig.links, l.ID)
		}
	}
	return rig, nil
}

func (r *churnRig) close() {
	r.cl.Close()
	r.d.close()
}

// churnTally accumulates one measurement phase of the churn loop.
type churnTally struct {
	ops                opCounter
	faultMS, reviveMS  []float64
	jobMS              []float64
	probeMS            []float64
	events, bursts     int
	elapsed            time.Duration
	faultEvents        int
	rebuilds           []float64
	allocMiB           []float64
	queueWait, reroute []float64
	validate, swapWire []float64
	e2eTraced          []float64
	errs               []string
	failedRebuilds     int64
	attemptedRebuilds  int64
}

func runChurn(e *env) (*result, error) {
	res := newResult()
	var rig *churnRig
	var setups []float64
	for i := 0; i < churnSetups; i++ {
		if rig != nil {
			rig.close()
			rig = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if rig, err = bootChurn(nil); err != nil {
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
	plain := churnLoop(e, rig, nil, budget)
	checkHealthyEpochs(res, rig.d.swaps)
	rig.close()
	res.ops = plain.ops
	errs := plain.errs
	if e.trace != nil {
		runtime.GC()
		rig, err := bootChurn(e.trace)
		if err != nil {
			return nil, err
		}
		traced := churnLoop(e, rig, e.trace, budget)
		checkHealthyEpochs(res, rig.d.swaps)
		res.ops.add(traced.ops)
		errs = append(errs, traced.errs...)
		err = churnLayers(res, e.trace, rig, plain, traced)
		rig.close()
		if err != nil {
			return nil, err
		}
	}
	res.recordProc(proc)

	res.timing("fault_to_serve_ms", "ms", plain.faultMS)
	res.timing("job_to_serve_ms", "ms", plain.jobMS)
	res.timing("revive_to_serve_ms", "ms", plain.reviveMS)
	res.timing("route_warm_us", "us", plain.probeMS)
	res.named["events_per_s"] = metric{float64(plain.events) / plain.elapsed.Seconds(), "1/s"}
	res.slots = map[string]string{
		"setup_s": "setup_s", "heap_mib": "heap_mib",
		"lat_a_ms.p50": "fault_to_serve_ms.p50", "lat_a_ms.tail": "fault_to_serve_ms.tail",
		"lat_b_ms.p50": "job_to_serve_ms.p50", "lat_b_ms.tail": "job_to_serve_ms.tail",
		"lat_c_ms.p50": "revive_to_serve_ms.p50", "lat_c_ms.tail": "revive_to_serve_ms.tail",
		"rate_per_s": "events_per_s",
	}
	res.notes["burst_share_of_fault_events"] = plain.burstShare()
	res.notes["events"] = plain.events
	if len(errs) > 0 {
		res.notes["errors"] = errs
	}
	res.check("every-event-served-over-wire", res.ops.failed == 0 && len(plain.faultMS) > 0 && len(plain.jobMS) > 0,
		"%d events, %d not answered over the wire; %d fault and %d job events timed untraced",
		res.ops.attempted, res.ops.failed, len(plain.faultMS), len(plain.jobMS))
	return res, nil
}

func (t *churnTally) burstShare() float64 {
	if t.faultEvents == 0 {
		return 0
	}
	return float64(t.bursts) / float64(t.faultEvents)
}

// stageTolerance bounds the share of the end-to-end time the journaled
// stages may leave unexplained before the traced run fails.
const stageTolerance = 0.05

// churnLayers turns the traced phase into per-layer metrics: the
// journaled stage chain of every event, the daemon's rebuild spans, the
// benchmark's replay spans and the client's probe times.
func churnLayers(res *result, tr *tracing, rig *churnRig, plain, traced *churnTally) error {
	// The traced half may draw few job events; time the allocator on a
	// fixed spread of sizes as well, so sched.alloc_us always has calls.
	for size := churnMinJob; size <= churnMaxJob; size += (churnMaxJob - churnMinJob) / 8 {
		replayAlloc(tr, rig.t, churnStanding, size)
	}
	st := rig.d.swaps.state()
	if jw, ok := st.JobRouteSets[sched.JobID(rig.standing)]; ok {
		if err := timeDecode(tr, jw.Frame); err != nil {
			return err
		}
	}
	spans, err := tr.finish()
	if err != nil {
		return err
	}
	qw, rr, vd, sw := mean(traced.queueWait), mean(traced.reroute), mean(traced.validate), mean(traced.swapWire)
	res.layer("fmgr.queue_wait_ms", qw, "ms")
	res.layer("fmgr.reroute_ms", rr, "ms")
	res.layer("fmgr.validate_ms", vd, "ms")
	res.layer("fmgr.swap_to_wire_ms", sw, "ms")
	total := mean(traced.e2eTraced)
	rem, ok := Reconcile(total, []float64{qw, rr, vd, sw}, stageTolerance)
	res.layer("fmgr.unattributed_ms", rem, "ms")
	res.check("stage-sum-reconciles", ok && len(traced.e2eTraced) > 0,
		"queue_wait %.3f + reroute %.3f + validate %.3f + swap_to_wire %.3f ms vs traced event mean %.3f ms over %d events: remainder %.3f ms (tolerance %.0f%%)",
		qw, rr, vd, sw, total, len(traced.e2eTraced), rem, stageTolerance*100)
	res.layer("trace.overhead_ms", Median(traced.faultMS)-Median(plain.faultMS), "ms")
	res.layer("fmgr.rebuilds_per_event", mean(traced.rebuilds), "count")
	res.layer("fmgr.rebuild_alloc_mib", mean(traced.allocMiB), "MiB")
	if traced.attemptedRebuilds > 0 {
		res.layer("fmgr.rebuild_failures", float64(traced.failedRebuilds)/float64(traced.attemptedRebuilds), "ratio")
	}
	daemonLayers(res, spans, rig.d)
	res.layer("sched.alloc_us", meanSelf(spans, pidBench, "sched.alloc")*1e3, "us")
	res.layer("fclient.overhead_us.warm", Median(traced.probeMS)*1e3-wireServerUS(rig.d.reg, "epoch"), "us")
	res.layer("fclient.epoch_regressions", float64(rig.cl.EpochRegressions()), "count")
	res.layer("mix.burst_share", traced.burstShare(), "ratio")
	fillIdle(res)
	return nil
}

// daemonLayers reports the layer metrics every daemon workload shares:
// the rebuild's own spans, the replayed layer calls, the arena's size
// and the server side of the binary protocol.
func daemonLayers(res *result, spans []spanRec, d *daemon) {
	res.layer("engine.tables_ms", meanSelf(spans, pidDaemon, "engine_tables"), "ms")
	res.layer("hsd.shift_summary_ms", meanSelf(spans, pidDaemon, "shift_hsd"), "ms")
	res.layer("wire.precompute_ms", meanSelf(spans, pidDaemon, "wire_precompute"), "ms")
	res.layer("fabric.route_around_ms", meanSelf(spans, pidBench, "fabric.route_around"), "ms")
	res.layer("route.compile_lenient_ms", meanSelf(spans, pidBench, "route.compile_lenient"), "ms")
	res.layer("invariant.lenient_arena_ms", meanSelf(spans, pidBench, "invariant.lenient_arena"), "ms")
	res.layer("route.packed_path_ns", packedPathNS(spans), "ns")
	res.layer("wire.decode_ms", meanSelf(spans, pidBench, "wire.decode"), "ms")
	res.layer("wire.decode_allocs", mean(argNums(spans, pidBench, "wire.decode", "allocs")), "count")
	var entries, broken, frames []float64
	for _, s := range d.swaps.all() {
		entries = append(entries, float64(s.entries))
		broken = append(broken, float64(s.broken))
		frames = append(frames, float64(s.frameLen))
	}
	res.layer("route.path_entries", mean(entries), "count")
	res.layer("route.broken_pairs", mean(broken), "count")
	res.layer("wire.job_frame_bytes", mean(frames), "bytes")
	res.layer("fmgr.wire_server_us.epoch", wireServerUS(d.reg, "epoch"), "us")
	res.layer("fmgr.wire_server_us.route_set", wireServerUS(d.reg, "route_set"), "us")
}

// churnEvent is one manager call the loop makes and how to recognize
// the snapshot that reflects it.
type churnEvent struct {
	kind  string // "fault", "revive" or "job"
	burst bool   // every fabric link of one switch at once
	call  func() error
	want  func(*swapInfo) bool
}

// churnLoop drives seeded events through the rig, one outstanding at a
// time, for budget. Every fault is revived and every extra job freed by
// the next event, so the fabric keeps returning to the standing state.
// With tr set it also records the per-stage breakdown of each event and
// replays the layer calls of each swapped snapshot.
func churnLoop(e *env, rig *churnRig, tr *tracing, budget time.Duration) *churnTally {
	t := &churnTally{}
	m := rig.d.m
	var failed []topo.LinkID // links the loop currently holds failed
	var burst bool
	var extra uint64 // the extra job the loop currently holds placed
	extraSize := 0
	var deck []string
	next := func() churnEvent {
		switch {
		case len(failed) > 0:
			revive := failed
			ev := churnEvent{kind: "revive", burst: burst,
				call: func() error { _, err := m.InjectFaults(nil, revive, 0); return err },
				want: func(s *swapInfo) bool { return s.nFailed == 0 }}
			failed, burst = nil, false
			return ev
		case extra != 0:
			id := extra
			extra = 0
			return churnEvent{kind: "job",
				call: func() error { return m.FreeJob(sched.JobID(id)) },
				want: func(s *swapInfo) bool { return s.jobs[id] == nil }}
		}
		if len(deck) == 0 {
			deck = append(deck, churnDeck...)
			e.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		draw := deck[0]
		deck = deck[1:]
		if draw == "job" {
			extraSize = churnMinJob + e.rng.Intn(churnMaxJob-churnMinJob+1)
			return churnEvent{kind: "job",
				call: func() error {
					a, err := m.AllocJob(extraSize, false)
					if err == nil {
						extra = uint64(a.ID)
					}
					return err
				},
				want: func(s *swapInfo) bool { return s.jobs[extra] != nil }}
		}
		burst = draw == "burst"
		if burst {
			failed = rig.switches[e.rng.Intn(len(rig.switches))]
		} else {
			failed = []topo.LinkID{rig.links[e.rng.Intn(len(rig.links))]}
		}
		fail, key := failed, linkKey(failed)
		return churnEvent{kind: "fault", burst: burst,
			call: func() error { _, err := m.InjectFaults(fail, nil, 0); return err },
			want: func(s *swapInfo) bool { return s.failed == key }}
	}

	start := time.Now()
	for time.Since(start) < budget {
		before := m.Current().Epoch
		swapsBefore := rig.d.swaps.swapped()
		seqBefore := nextSeq(m)
		var allocBefore uint64
		if tr != nil {
			allocBefore = totalAlloc()
		}
		ev := next()
		sp := tr.start("fmgr." + ev.kind + "_event")
		t0 := time.Now()
		err := ev.call()
		var info *swapInfo
		var served time.Time
		if err == nil {
			info, served, err = rig.d.waitServed(rig.cl, before, ev.want, eventTimeout, pollEvery, &t.probeMS)
		}
		sp.End()
		t.ops.note(err)
		t.events++
		if err != nil {
			t.errs = append(t.errs, fmt.Sprintf("%s event: %v", ev.kind, err))
			continue
		}
		lat := float64(served.Sub(t0).Nanoseconds()) / 1e6
		switch ev.kind {
		case "fault":
			t.faultMS = append(t.faultMS, lat)
		case "revive":
			t.reviveMS = append(t.reviveMS, lat)
		default:
			t.jobMS = append(t.jobMS, lat)
		}
		if ev.kind != "job" {
			t.faultEvents++
			if ev.burst {
				t.bursts++
			}
		}
		t.rebuilds = append(t.rebuilds, float64(rig.d.swaps.swapped()-swapsBefore))
		if tr == nil {
			continue
		}
		t.allocMiB = append(t.allocMiB, float64(totalAlloc()-allocBefore)/(1<<20))
		if st, ok := stageChain(m, seqBefore, info.epoch, t0, served); ok {
			t.queueWait = append(t.queueWait, st.queueWait)
			t.reroute = append(t.reroute, st.reroute)
			t.validate = append(t.validate, st.validate)
			t.swapWire = append(t.swapWire, st.swapWire)
			t.e2eTraced = append(t.e2eTraced, lat)
		}
		st := rig.d.swaps.state()
		if err := replayRebuild(tr, st); err != nil {
			t.ops.note(err)
			t.errs = append(t.errs, fmt.Sprintf("replay epoch %d: %v", st.Epoch, err))
		}
		if ev.kind == "job" && extra != 0 {
			replayAlloc(tr, rig.t, churnStanding, extraSize)
		}
	}
	t.elapsed = time.Since(start)
	snap := rig.d.reg.Snapshot()
	t.failedRebuilds = snap.Counters["fmgr_reroute_failures_total"]
	t.attemptedRebuilds = snap.Counters["fmgr_reroutes_total"] + t.failedRebuilds
	return t
}

// stages is one event's blocking path, in milliseconds, from the
// daemon's journal and the client's clock.
type stages struct {
	queueWait, reroute, validate, swapWire float64
}

// nextSeq is the sequence number the manager's journal will give its
// next record.
func nextSeq(m *fmgr.Manager) uint64 {
	recs, dropped := m.Events(0)
	if len(recs) == 0 {
		return dropped
	}
	return recs[len(recs)-1].Seq + 1
}

// stageChain splits one event's fault→serve time using the journal
// records written since seq: the wait from the last input record to the
// start of the rebuild that produced epoch (debounce and queueing), the
// rebuild, its validation, and swap → the wire answering the epoch.
func stageChain(m *fmgr.Manager, seq, epoch uint64, t0, served time.Time) (stages, bool) {
	recs, _ := m.EventsSince(seq, 0)
	var lastInput, rerouteEnd, swapAt int64
	var st stages
	for _, r := range recs {
		switch r.Kind {
		case fmgr.EvFault, fmgr.EvRevive, fmgr.EvAlloc, fmgr.EvFree, fmgr.EvFaultRandom:
			lastInput = r.TimeUnixNS
		case fmgr.EvReroute:
			if r.Epoch == epoch {
				rerouteEnd = r.TimeUnixNS
				st.reroute = float64(r.DurationUS) / 1e3
			}
		case fmgr.EvValidate:
			if r.Epoch == epoch {
				st.validate = float64(r.DurationUS) / 1e3
			}
		case fmgr.EvSwap:
			if r.Epoch == epoch {
				swapAt = r.TimeUnixNS
			}
		}
	}
	if lastInput == 0 || rerouteEnd == 0 || swapAt == 0 || lastInput < t0.UnixNano() {
		return st, false
	}
	rerouteStart := rerouteEnd - int64(st.reroute*1e6)
	st.queueWait = float64(rerouteStart-lastInput) / 1e6
	st.swapWire = float64(served.UnixNano()-swapAt) / 1e6
	return st, true
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
