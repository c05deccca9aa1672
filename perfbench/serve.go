package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fattree/internal/sched"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// route-serve-324: the read path at the paper's 324-host cluster.
// Several placed jobs are served to nproc closed-loop clients, each
// drawing a seeded mix of warm job reads (one epoch probe), full-frame
// fetches (a cold read on a newly dialed client, or the hinted refetch
// a warm read turns into after the epoch moved) and explicit batches of
// 324 pairs. A seeded open-loop stream of link faults and revives runs
// beside them, so a known share of warm reads become refetches.
const (
	serveWarmShare  = 0.80
	serveColdShare  = 0.10
	serveBatch      = 324
	serveSetups     = 5
	serveFaultEvery = time.Second // mean gap of the background fault stream
)

// serveJobs are the placed jobs' sizes: 89% of the machine in four
// equal jobs of 5112 ordered pairs each. Equal sizes keep a fetch's
// cost independent of which job a client drew, so the fetch median
// does not sit between per-job modes.
var serveJobs = []int{72, 72, 72, 72}

type serveRig struct {
	t    *topo.Topology
	d    *daemon
	jobs []uint64
	size map[uint64]int
}

func bootServe(tr *tracing) (*serveRig, error) {
	t, err := topo.Build(topo.Cluster324)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(t, tr.daemonSpans(), true)
	if err != nil {
		return nil, err
	}
	rig := &serveRig{t: t, d: d, size: map[uint64]int{}}
	for _, n := range serveJobs {
		a, err := d.m.AllocJob(n, false)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("place %d-host job: %w", n, err)
		}
		rig.jobs = append(rig.jobs, uint64(a.ID))
		rig.size[uint64(a.ID)] = n
	}
	cl, err := d.client()
	if err != nil {
		d.close()
		return nil, err
	}
	defer cl.Close()
	var probes []float64
	all := func(s *swapInfo) bool { return len(s.jobs) == len(serveJobs) }
	if _, _, err := d.waitServed(cl, 0, all, eventTimeout, pollEvery, &probes); err != nil {
		d.close()
		return nil, fmt.Errorf("placed jobs never served: %w", err)
	}
	return rig, nil
}

// serveTally is one client's (or, merged, one phase's) record.
type serveTally struct {
	ops                     opCounter
	warmMS, fetchMS, pairMS []float64
	warmTries, refetches    int
	routes                  int
	regressions             int64
	elapsed                 time.Duration
	errs                    []string
}

func (t *serveTally) merge(o *serveTally) {
	t.ops.add(o.ops)
	t.warmMS = append(t.warmMS, o.warmMS...)
	t.fetchMS = append(t.fetchMS, o.fetchMS...)
	t.pairMS = append(t.pairMS, o.pairMS...)
	t.warmTries += o.warmTries
	t.refetches += o.refetches
	t.routes += o.routes
	t.regressions += o.regressions
	if len(t.errs) < 8 {
		t.errs = append(t.errs, o.errs...)
	}
}

func (t *serveTally) refetchShare() float64 {
	if t.warmTries == 0 {
		return 0
	}
	return float64(t.refetches) / float64(t.warmTries)
}

func runServe(e *env) (*result, error) {
	res := newResult()
	var rig *serveRig
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if rig != nil {
			rig.d.close()
			rig = nil
		}
		start := time.Now()
		var err error
		if rig, err = bootServe(nil); err != nil {
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
	plain, bg := servePhase(e, rig, nil, budget)
	checkHealthyEpochs(res, rig.d.swaps)
	rig.d.close()
	res.ops = plain.ops
	if e.trace != nil {
		traced, err := bootServe(e.trace)
		if err != nil {
			return nil, err
		}
		tt, tbg := servePhase(e, traced, e.trace, budget)
		checkHealthyEpochs(res, traced.d.swaps)
		res.ops.add(tt.ops)
		plain.errs = append(plain.errs, tt.errs...)
		plain.regressions += tt.regressions
		err = serveLayers(res, e.trace, traced, plain, tt, tbg)
		traced.d.close()
		if err != nil {
			return nil, err
		}
	}
	res.recordProc(proc)

	res.timing("route_warm_us", "us", plain.warmMS)
	res.timing("route_fetch_ms", "ms", plain.fetchMS)
	res.timing("pairs_batch_us", "us", plain.pairMS)
	res.named["routes_per_s"] = metric{float64(plain.routes) / plain.elapsed.Seconds(), "1/s"}
	res.slots = map[string]string{
		"setup_s": "setup_s", "heap_mib": "heap_mib",
		"lat_a_ms.p50": "route_warm_us.p50", "lat_a_ms.tail": "route_warm_us.tail",
		"lat_b_ms.p50": "route_fetch_ms.p50", "lat_b_ms.tail": "route_fetch_ms.tail",
		"lat_c_ms.p50": "pairs_batch_us.p50", "lat_c_ms.tail": "pairs_batch_us.tail",
		"rate_per_s": "routes_per_s",
	}
	res.notes["refetch_share_of_warm_reads"] = plain.refetchShare()
	res.notes["background_rebuilds"] = bg
	if len(plain.errs) > 0 {
		res.notes["errors"] = plain.errs
	}
	res.check("route-sets-match-served-epochs", res.ops.failed == 0 && len(plain.warmMS) > 0 &&
		len(plain.fetchMS) > 0 && len(plain.pairMS) > 0,
		"%d reads, %d wrong or failed (epoch swapped in, pair count, sampled hops)", res.ops.attempted, res.ops.failed)
	res.check("no-epoch-regressions", plain.regressions == 0, "%d regressions", plain.regressions)
	return res, nil
}

// servePhase runs nproc clients and the background fault stream against
// rig for budget and returns the merged tally and the number of
// rebuilds the stream caused.
func servePhase(e *env, rig *serveRig, tr *tracing, budget time.Duration) (*serveTally, int) {
	workers := runtime.NumCPU()
	seeds := make([]int64, workers)
	for i := range seeds {
		seeds[i] = e.rng.Int63()
	}
	faultSeed := e.rng.Int63()
	swapsBefore := rig.d.swaps.swapped()
	start := time.Now()
	deadline := start.Add(budget)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	tallies := make([]*serveTally, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tallies[i] = serveClient(rig, rand.New(rand.NewSource(seeds[i])), deadline)
		}(i)
	}
	var streamErr error
	var streamWG sync.WaitGroup
	streamWG.Add(1)
	go func() {
		defer streamWG.Done()
		streamErr = faultStream(rig, tr, rand.New(rand.NewSource(faultSeed)), deadline, stop)
	}()
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	streamWG.Wait()
	out := &serveTally{elapsed: elapsed}
	for _, t := range tallies {
		out.merge(t)
	}
	if streamErr != nil {
		out.ops.note(streamErr)
		out.errs = append(out.errs, streamErr.Error())
	}
	return out, rig.d.swaps.swapped() - swapsBefore
}

// faultStream is the background open loop: at seeded instants spread
// uniformly within ±25% of serveFaultEvery apart it fails one random
// fabric link, then revives it at the next. The rate is fixed rather
// than Poisson so every seed stalls the readers about equally often;
// the stream's rebuilds are what the read tails are sensitive to. In a
// traced run it replays each new snapshot's layer calls.
func faultStream(rig *serveRig, tr *tracing, r *rand.Rand, deadline time.Time, stop chan struct{}) error {
	var links []topo.LinkID
	for _, l := range rig.t.Links {
		if l.Level >= 2 {
			links = append(links, l.ID)
		}
	}
	var failed []topo.LinkID
	next := time.Now()
	replayed := uint64(0)
	for {
		next = next.Add(time.Duration((0.75 + r.Float64()/2) * float64(serveFaultEvery)))
		if next.After(deadline) {
			return nil
		}
		select {
		case <-stop:
			return nil
		case <-time.After(time.Until(next)):
		}
		var err error
		if failed != nil {
			_, err = rig.d.m.InjectFaults(nil, failed, 0)
			failed = nil
		} else {
			failed = []topo.LinkID{links[r.Intn(len(links))]}
			_, err = rig.d.m.InjectFaults(failed, nil, 0)
		}
		if err != nil {
			return fmt.Errorf("background fault: %w", err)
		}
		if st := rig.d.swaps.state(); tr != nil && st.Epoch != replayed {
			replayed = st.Epoch
			if err := replayRebuild(tr, st); err != nil {
				return fmt.Errorf("replay epoch %d: %w", st.Epoch, err)
			}
		}
	}
}

// serveClient is one closed-loop reader with its own connection. It
// returns its latencies by kind and the result of checking every
// answer against the epoch it claims.
func serveClient(rig *serveRig, r *rand.Rand, deadline time.Time) *serveTally {
	t := &serveTally{}
	cl, err := rig.d.client()
	if err != nil {
		t.ops.note(err)
		t.errs = append(t.errs, err.Error())
		return t
	}
	defer cl.Close()
	n := rig.t.NumHosts()
	pinned := map[uint64]uint64{} // job -> epoch of the set this client holds
	pairs := make([][2]uint32, serveBatch)
	for time.Now().Before(deadline) {
		job := rig.jobs[r.Intn(len(rig.jobs))]
		u := r.Float64()
		var rs *wire.RouteSetResp
		var err error
		t0 := time.Now()
		switch {
		case u < serveWarmShare:
			rs, err = cl.JobRouteSet(job)
			lat := msSince(t0)
			if err == nil {
				prev, had := pinned[job]
				switch {
				case !had:
					t.fetchMS = append(t.fetchMS, lat) // first read on this client: cold
				case rs.Epoch == prev:
					t.warmTries++
					t.warmMS = append(t.warmMS, lat)
				default:
					t.warmTries++
					t.refetches++
					t.fetchMS = append(t.fetchMS, lat)
				}
				pinned[job] = rs.Epoch
				err = rig.checkJobSet(rs, job, r)
			}
		case u < serveWarmShare+serveColdShare:
			rs, err = coldFetch(rig.d, job)
			lat := msSince(t0)
			if err == nil {
				t.fetchMS = append(t.fetchMS, lat)
				err = rig.checkJobSet(rs, job, r)
			}
		default:
			for i := range pairs {
				pairs[i] = [2]uint32{uint32(r.Intn(n)), uint32(r.Intn(n))}
			}
			t0 = time.Now()
			rs, err = cl.RouteSet("", pairs)
			lat := msSince(t0)
			if err == nil {
				t.pairMS = append(t.pairMS, lat)
				err = rig.checkPairs(rs, pairs, r)
			}
		}
		t.ops.note(err)
		if err != nil {
			if len(t.errs) < 8 {
				t.errs = append(t.errs, err.Error())
			}
			continue
		}
		t.routes += len(rs.Pairs)
	}
	t.regressions = cl.EpochRegressions()
	return t
}

// coldFetch reads a job's full set on a newly dialed client.
func coldFetch(d *daemon, job uint64) (*wire.RouteSetResp, error) {
	cl, err := d.client()
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	return cl.JobRouteSet(job)
}

// checkJobSet verifies a job route set: its epoch was swapped in, it
// holds every ordered pair of the job, and one sampled pair's hops are
// that epoch's compiled path.
func (rig *serveRig) checkJobSet(rs *wire.RouteSetResp, job uint64, r *rand.Rand) error {
	info := rig.d.swaps.get(rs.Epoch)
	if info == nil {
		return fmt.Errorf("%w: job %d answered from epoch %d, never swapped in", errWrong, job, rs.Epoch)
	}
	k := len(info.jobs[job])
	if k != rig.size[job] || len(rs.Pairs) != k*(k-1) {
		return fmt.Errorf("%w: job %d (%d hosts) answered %d pairs in epoch %d", errWrong, job, rig.size[job], len(rs.Pairs), rs.Epoch)
	}
	return checkPair(info, rs.Pairs[r.Intn(len(rs.Pairs))])
}

// checkPairs verifies an explicit batch the same way.
func (rig *serveRig) checkPairs(rs *wire.RouteSetResp, pairs [][2]uint32, r *rand.Rand) error {
	info := rig.d.swaps.get(rs.Epoch)
	if info == nil {
		return fmt.Errorf("%w: batch answered from epoch %d, never swapped in", errWrong, rs.Epoch)
	}
	if len(rs.Pairs) != len(pairs) {
		return fmt.Errorf("%w: %d-pair batch answered %d pairs", errWrong, len(pairs), len(rs.Pairs))
	}
	i := r.Intn(len(pairs))
	if rs.Pairs[i].Src != pairs[i][0] || rs.Pairs[i].Dst != pairs[i][1] {
		return fmt.Errorf("%w: batch pair %d answered out of order", errWrong, i)
	}
	return checkPair(info, rs.Pairs[i])
}

// checkPair compares one served pair with the compiled path of the
// epoch it was served from.
func checkPair(info *swapInfo, p wire.PairRoute) error {
	src, dst := int(p.Src), int(p.Dst)
	if src == dst {
		if !p.OK || len(p.Hops) != 0 {
			return fmt.Errorf("%w: self pair %d answered ok=%v with %d hops", errWrong, src, p.OK, len(p.Hops))
		}
		return nil
	}
	if info.paths.Broken(src, dst) {
		if p.OK {
			return fmt.Errorf("%w: pair %d->%d broken in epoch %d but served", errWrong, src, dst, info.epoch)
		}
		return nil
	}
	want, err := info.paths.PackedPath(src, dst)
	if err != nil {
		return err
	}
	if !p.OK || len(p.Hops) != len(want) {
		return fmt.Errorf("%w: pair %d->%d in epoch %d: ok=%v, %d hops, want %d", errWrong, src, dst, info.epoch, p.OK, len(p.Hops), len(want))
	}
	for i, h := range p.Hops {
		if h != uint32(want[i]) {
			return fmt.Errorf("%w: pair %d->%d in epoch %d differs at hop %d", errWrong, src, dst, info.epoch, i)
		}
	}
	return nil
}

// serveLayers turns the traced phase into per-layer metrics.
func serveLayers(res *result, tr *tracing, rig *serveRig, plain, traced *serveTally, rebuilds int) error {
	st := rig.d.swaps.state()
	biggest := rig.jobs[0]
	if jw, ok := st.JobRouteSets[sched.JobID(biggest)]; ok {
		if err := timeDecode(tr, jw.Frame); err != nil {
			return err
		}
	}
	spans, err := tr.finish()
	if err != nil {
		return err
	}
	daemonLayers(res, spans, rig.d)
	epochUS := wireServerUS(rig.d.reg, "epoch")
	rsUS := wireServerUS(rig.d.reg, "route_set")
	res.layer("fclient.overhead_us.warm", Median(traced.warmMS)*1e3-epochUS, "us")
	res.layer("fclient.overhead_us.fetch", Median(traced.fetchMS)*1e3-rsUS, "us")
	res.layer("fclient.overhead_us.pairs", Median(traced.pairMS)*1e3-rsUS, "us")
	hit := 0.0
	if traced.warmTries > 0 {
		hit = float64(traced.warmTries-traced.refetches) / float64(traced.warmTries)
	}
	res.layer("fclient.cache_hit_ratio", hit, "ratio")
	res.layer("fclient.epoch_regressions", float64(traced.regressions), "count")
	res.layer("fmgr.background_rebuilds", float64(rebuilds), "count")
	snap := rig.d.reg.Snapshot()
	failedRB := snap.Counters["fmgr_reroute_failures_total"]
	if n := snap.Counters["fmgr_reroutes_total"] + failedRB; n > 0 {
		res.layer("fmgr.rebuild_failures", float64(failedRB)/float64(n), "ratio")
	}
	res.layer("mix.refetch_share", traced.refetchShare(), "ratio")
	res.layer("trace.overhead_ms", Median(traced.warmMS)-Median(plain.warmMS), "ms")
	fillIdle(res)
	return nil
}
