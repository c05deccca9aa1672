package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"fattree/internal/fclient"
	"fattree/internal/fmgr"
	"fattree/internal/obs"
	"fattree/internal/route"
	"fattree/internal/topo"
	"fattree/internal/wire"
)

// daemon is one in-process ftfabricd configured the way cmd/ftfabricd
// deploys it: metrics registry on, default engine, debounce and
// journal, HTTP and the binary protocol on one loopback listener split
// by wire.Split. Spans are on only in a traced run.
type daemon struct {
	m     *fmgr.Manager
	reg   *obs.Registry
	srv   *http.Server
	addr  string
	done  chan error
	swaps *swapLog
}

func startDaemon(t *topo.Topology, spans *obs.SpanTracer, keepPaths bool) (*daemon, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	m, err := fmgr.New(fmgr.Config{
		Topo:    t,
		Rand:    rand.New(rand.NewSource(1)),
		Metrics: reg,
		Spans:   spans,
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{m: m, reg: reg, done: make(chan error, 1), swaps: newSwapLog(keepPaths)}
	m.OnSwap = d.swaps.record
	m.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.srv = &http.Server{Handler: m.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { d.done <- d.srv.Serve(wire.Split(ln, m.ServeWire)) }()
	return d, nil
}

// close stops the listener and the manager and waits for both.
func (d *daemon) close() error {
	err := d.srv.Close()
	d.m.Close()
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (d *daemon) client() (*fclient.Client, error) {
	return fclient.New(fclient.Config{Addrs: []string{d.addr}})
}

// waitServed polls the wire with epoch probes until the daemon answers
// an epoch newer than after whose snapshot satisfies want, or until
// timeout. Every probe's round trip (ms) is appended to probes. It
// returns the served epoch's record and when the answer arrived.
func (d *daemon) waitServed(cl *fclient.Client, after uint64, want func(*swapInfo) bool,
	timeout, poll time.Duration, probes *[]float64) (*swapInfo, time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		t0 := time.Now()
		epoch, _, err := cl.Epoch()
		now := time.Now()
		*probes = append(*probes, float64(now.Sub(t0).Nanoseconds())/1e6)
		if err != nil {
			return nil, now, fmt.Errorf("epoch probe: %w", err)
		}
		if epoch > after {
			info := d.swaps.get(epoch)
			if info == nil {
				return nil, now, fmt.Errorf("%w: wire answered epoch %d, which was never swapped in", errWrong, epoch)
			}
			if want(info) {
				return info, now, nil
			}
		}
		if now.After(deadline) {
			return nil, now, fmt.Errorf("epoch reflecting the event not served within %v (last answer %d)", timeout, epoch)
		}
		time.Sleep(poll)
	}
}

// swapInfo is what the benchmark remembers of one swapped-in snapshot.
type swapInfo struct {
	epoch    uint64
	failed   string // canonical key of the failed-link set
	nFailed  int
	jobs     map[uint64][]int // job id -> hosts
	healthy  bool             // no failed links
	cfree    bool             // Shift HSD contention free
	broken   int
	unroute  int
	entries  int
	paths    *route.Compiled // kept only when the log keeps paths
	frameLen int             // bytes of all pre-encoded job frames
}

// swapLog records every snapshot the daemon swaps in, through
// Manager.OnSwap, so answers can be checked against the epochs the
// daemon really served.
type swapLog struct {
	keepPaths bool

	mu     sync.Mutex
	byEp   map[uint64]*swapInfo
	latest *fmgr.FabricState
	count  int
}

func newSwapLog(keepPaths bool) *swapLog {
	return &swapLog{keepPaths: keepPaths, byEp: map[uint64]*swapInfo{}}
}

func (l *swapLog) record(st *fmgr.FabricState) {
	info := &swapInfo{
		epoch:   st.Epoch,
		failed:  linkKey(st.FailedLinks),
		nFailed: len(st.FailedLinks),
		jobs:    map[uint64][]int{},
		healthy: len(st.FailedLinks) == 0,
		cfree:   st.HSD != nil && st.HSD.ContentionFree(),
		broken:  st.BrokenPairs,
		unroute: len(st.Unroutable),
		entries: st.Paths.NumEntries(),
	}
	for _, j := range st.Jobs {
		info.jobs[uint64(j.ID)] = j.Hosts
	}
	for _, f := range st.JobRouteSets {
		info.frameLen += len(f.Frame)
	}
	if l.keepPaths {
		info.paths = st.Paths
	}
	l.mu.Lock()
	l.byEp[st.Epoch] = info
	l.latest = st
	l.count++
	l.mu.Unlock()
}

func (l *swapLog) get(epoch uint64) *swapInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byEp[epoch]
}

// swapped is how many snapshots have been swapped in so far.
func (l *swapLog) swapped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// state is the most recently swapped-in snapshot.
func (l *swapLog) state() *fmgr.FabricState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latest
}

// all returns every recorded swap, oldest first.
func (l *swapLog) all() []*swapInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*swapInfo, 0, len(l.byEp))
	for _, s := range l.byEp {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].epoch < out[j].epoch })
	return out
}

// linkKey renders a link set canonically, so two sets compare as
// strings.
func linkKey(ls []topo.LinkID) string {
	s := append([]topo.LinkID(nil), ls...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return fmt.Sprint(s)
}

// checkHealthyEpochs applies the paper's claim to every recorded epoch
// that serves a healthy fabric: D-Mod-K plus the topology order must
// give Shift HSD = 1 with every pair routable.
func checkHealthyEpochs(res *result, l *swapLog) {
	healthy, bad := 0, 0
	detail := ""
	for _, s := range l.all() {
		if !s.healthy {
			continue
		}
		healthy++
		if !s.cfree || s.broken != 0 || s.unroute != 0 {
			bad++
			detail = fmt.Sprintf("; epoch %d: contention-free=%v broken=%d unroutable=%d",
				s.epoch, s.cfree, s.broken, s.unroute)
		}
	}
	res.check("healthy-epochs-contention-free", healthy > 0 && bad == 0,
		"%d healthy epochs, %d violating%s", healthy, bad, detail)
}

// wireServerUS is the daemon's own median handling time for one binary
// endpoint, read from its fmgr_wire RED histogram. The histogram
// records whole microseconds, so sub-microsecond handling reads low.
func wireServerUS(reg *obs.Registry, endpoint string) float64 {
	return reg.Snapshot().Histograms[obs.Labeled("fmgr_wire_request_duration_us", "endpoint", endpoint)].P50
}
