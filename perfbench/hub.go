package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/shard"
)

// hubDesigns is the suite one client submits: the two training designs
// with the most ANDs (507 and 522).
var hubDesigns = []string{"EX08", "EX28"}

// hubIters is the annealing length of every grid point. The default
// grid has 21 points per design; at this length one cold submission
// takes about five seconds on the benchmark's one-core budget, so a
// run measures several.
const hubIters = 6

// hubWorkers is the fleet: two production runners (one on a
// single-CPU host). On the one-core budget they take turns on it, and
// two keep the multi-worker paths in play: live cache merges between
// workers and preseed pushes.
func hubWorkers() int { return min(2, runtime.NumCPU()) }

// hubService is an in-process shard.Hub on a loopback TCP listener with
// a registered fleet of production runners.
type hubService struct {
	hub      *shard.Hub
	ln       net.Listener
	addr     string
	store    *eval.Store
	register time.Duration

	firstDone atomic.Int64                  // unix ns of the first merged grid point
	queued    atomic.Int64                  // unix ns the hub accepted the last submission
	params    atomic.Pointer[anneal.Params] // the last session's resolved parameters
	ended     chan struct{}                 // a worker finished EndSession
	workers   int
	wg        sync.WaitGroup
}

// startHub opens store (a new file when fresh), starts the hub and
// registers workers workers over TCP; it returns once every one is in
// the fleet.
func startHub(storePath string, workers int, tr *tracer) (*hubService, error) {
	st, err := eval.OpenStore(storePath)
	if err != nil {
		return nil, err
	}
	h := &hubService{store: st, workers: workers, ended: make(chan struct{}, workers)}
	registered := make(chan struct{}, workers)
	h.hub = shard.NewHub(shard.HubOptions{
		Preseed: true,
		Store:   st,
		OnJobDone: func(int, string) {
			h.firstDone.CompareAndSwap(0, time.Now().UnixNano())
		},
		// The log is the only hook for these two events; failures are
		// read from the submission's Stats instead.
		Logf: func(format string, args ...any) {
			switch {
			case strings.Contains(format, "registered"):
				registered <- struct{}{}
			case strings.Contains(format, "submission queued"):
				h.queued.Store(time.Now().UnixNano())
			}
		},
	})
	if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		st.Close()
		return nil, err
	}
	h.addr = h.ln.Addr().String()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		h.hub.ServeListener(h.ln) // returns when the listener closes
	}()
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		conn, err := net.Dial("tcp", h.addr)
		if err != nil {
			h.stop()
			return nil, err
		}
		runner := tracedRunner{inner: flows.NewShardRunner(), t: tr, params: &h.params, ended: h.ended}
		h.wg.Add(1)
		go func(name string) {
			defer h.wg.Done()
			shard.RegisterWorker(conn, name, runner) // returns when the hub says bye
		}(fmt.Sprintf("w%d", i))
	}
	for i := 0; i < workers; i++ {
		select {
		case <-registered:
		case <-time.After(30 * time.Second):
			h.stop()
			return nil, fmt.Errorf("hub: %d of %d workers registered", i, workers)
		}
	}
	h.register = time.Since(t0)
	return h, nil
}

// stop closes the hub, its listener and every worker, waits for all of
// their goroutines, and closes the store.
func (h *hubService) stop() {
	h.hub.Close()
	h.ln.Close()
	h.wg.Wait()
	h.store.Close()
}

// submission is one client submission and its outcome.
type submission struct {
	results   []flows.SuiteResult
	stats     *shard.Stats
	wall      time.Duration
	first     time.Duration
	cpu       time.Duration
	allocB    uint64
	liveHeapB uint64
	prepare   time.Duration // submit call to the hub accepting it
}

func hubEntries(lib *cell.Library) ([]flows.SuiteEntry, error) {
	var es []flows.SuiteEntry
	for _, name := range hubDesigns {
		d, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		es = append(es, flows.SuiteEntry{Name: name, G: d.Build(), Eval: flows.NewGroundTruth(lib)})
	}
	return es, nil
}

func hubConfig(seed int64) flows.SweepConfig {
	cfg := flows.DefaultSweep
	cfg.Base.Iterations = hubIters
	cfg.Base.Seed = seed
	return cfg
}

// submit sends the suite to the hub as one client and waits for every
// result, the way aigopt -suite ... -hub does.
func (h *hubService) submit(entries []flows.SuiteEntry, lib *cell.Library, seed int64) (*submission, error) {
	h.firstDone.Store(0)
	h.queued.Store(0)
	for len(h.ended) > 0 {
		<-h.ended
	}
	runtime.GC()
	alloc0 := totalAlloc()
	cpu0 := cpuTime()
	t0 := time.Now()
	rs, st, err := flows.SweepSuiteSharded(entries, lib, hubConfig(seed), flows.ShardOptions{Hub: h.addr})
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	s := &submission{results: rs, stats: st, wall: wall, cpu: cpu}
	s.allocB = totalAlloc() - alloc0
	// Let every worker drop its session state, so the live heap is the
	// idle hub's, not a snapshot of teardown in progress.
	for i := 0; i < h.workers; i++ {
		select {
		case <-h.ended:
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("hub: %d of %d workers ended the session", i, h.workers)
		}
	}
	s.liveHeapB = heapAfterGC()
	if f := h.firstDone.Load(); f > 0 {
		s.first = time.Duration(f - t0.UnixNano())
	}
	if q := h.queued.Load(); q > 0 {
		s.prepare = time.Duration(q - t0.UnixNano())
	}
	return s, nil
}

func (s *submission) points() [][]flows.SweepPoint {
	out := make([][]flows.SweepPoint, len(s.results))
	for i, r := range s.results {
		out[i] = r.Points
	}
	return out
}

// qor sums, over the suite's designs, the best signoff delay and the
// best signoff area any grid point reached.
func (s *submission) qor() (delay, area float64) {
	for _, r := range s.results {
		d, a := r.Points[0].TrueDelayPS, r.Points[0].TrueAreaUM2
		for _, p := range r.Points {
			if p.TrueDelayPS < d {
				d = p.TrueDelayPS
			}
			if p.TrueAreaUM2 < a {
				a = p.TrueAreaUM2
			}
		}
		delay += d
		area += a
	}
	return delay, area
}

func (s *submission) bestCostSum() float64 {
	c := 0.0
	for _, r := range s.results {
		for _, p := range r.Points {
			c += p.Result.BestCost
		}
	}
	return c
}

// checkSubmission certifies every grid point's best graph (one
// operation each) and then the submission itself (one more): the hub
// must not have retried, requeued or lost a worker, a submission the
// store should answer (fromStore) must make no oracle call, and its
// outcome must match the reference of its seed and the digest of every
// earlier submission of that seed in the run.
func (r *run) checkSubmission(checkers []*equivChecker, seed int64, s *submission, fromStore bool, digests map[int64]string) {
	t0 := time.Now()
	npts := 0
	for e, res := range s.results {
		for i, p := range res.Points {
			npts++
			if err := checkers[e].check(p.Result.Best); err != nil {
				r.op(fmt.Errorf("seed %d %s point %d: %w", seed, res.Name, i, err))
				continue
			}
			r.op(nil)
		}
	}
	r.sample("check.equiv_ms", float64(time.Since(t0))/float64(time.Millisecond)/float64(npts))
	var errs []error
	if st := s.stats; st.Retries+st.Requeues+st.WorkerLosses > 0 {
		errs = append(errs, fmt.Errorf("seed %d: hub recovered from %d retries, %d requeues and %d worker losses",
			seed, st.Retries, st.Requeues, st.WorkerLosses))
	}
	if calls := s.oracleCalls(); fromStore && (calls > 0 || s.stats.PrefilterHits == 0) {
		errs = append(errs, fmt.Errorf("seed %d: warm submission made %d oracle calls with %d prefilter hits; the store must answer every one",
			seed, calls, s.stats.PrefilterHits))
	}
	d := digest(s.points()...)
	qd, qa := s.qor()
	// Cold submissions and the store probe share one reference table:
	// the store may only skip work, never change an answer.
	errs = append(errs, r.checkRef("hub", seed, reference{BestCost: s.bestCostSum(), QoRDelayPS: qd, QoRAreaUM2: qa, Digest: d}))
	if first, ok := digests[seed]; !ok {
		digests[seed] = d
	} else if d != first {
		errs = append(errs, fmt.Errorf("seed %d: sweep digest %s differs from the run's first submission's %s", seed, d, first))
	}
	r.op(errors.Join(errs...))
}

// oracleCalls is the number of full and delta evaluations the
// submission's annealing loops made.
func (s *submission) oracleCalls() int64 {
	var n int64
	for _, r := range s.results {
		for _, p := range r.Points {
			n += p.Result.FullEvals + p.Result.DeltaEvals
		}
	}
	return n
}

func runHub(r *run) error {
	lib := cell.Builtin()
	dir := filepath.Join(outDir, fmt.Sprintf("stores-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	storeN := 0
	freshStore := func() string {
		storeN++
		return filepath.Join(dir, fmt.Sprintf("s%d.store", storeN))
	}
	// setUp is the user's set-up of one cold submission: build the
	// suite's designs, start the hub on a new store and register the
	// fleet. It takes milliseconds; setup_s is the median of the
	// warm-up's set-up and those of every timed submission, which spread
	// over the window like the submissions themselves. A traced twin's
	// set-up is not sampled.
	setUp := func(storePath string, tr *tracer, timed bool) ([]flows.SuiteEntry, *hubService, error) {
		runtime.GC() // as in a single run's set-up, start from a collected heap
		t0 := time.Now()
		es, err := hubEntries(lib)
		if err != nil {
			return nil, nil, err
		}
		h, err := startHub(storePath, hubWorkers(), tr)
		if err == nil && timed {
			r.sample("setup_s", time.Since(t0).Seconds())
		}
		return es, h, err
	}

	entries, err := hubEntries(lib)
	if err != nil {
		return err
	}
	checkers := make([]*equivChecker, len(entries))
	for i, e := range entries {
		if checkers[i], err = newEquivChecker(e.G); err != nil {
			return err
		}
		r.invariant(checkers[i].selfTest())
	}
	digests := map[int64]string{}
	submit := func(h *hubService, es []flows.SuiteEntry, seed int64, fromStore bool) *submission {
		s, err := h.submit(es, lib, seed)
		if err != nil {
			r.op(fmt.Errorf("seed %d submission: %w", seed, err))
			return nil
		}
		r.checkSubmission(checkers, seed, s, fromStore, digests)
		return s
	}

	// Warm-up: a resident hub and its workers run in warm processes, so
	// one checked but untimed submission fills the process-wide tables
	// before the timed ones.
	es, wh, err := setUp(freshStore(), nil, true)
	if err != nil {
		return err
	}
	submit(wh, es, subSeed(r.seed, warmupK), false)
	wh.stop()

	// Every submission goes to a new hub on a new store, and the metrics
	// are medians over single submissions, at least four. The first
	// timed submission of a run allocates about half again as much as
	// the others and takes about a fifth longer, whether one or four
	// warm-ups ran before it and whichever seed it uses; a median keeps
	// that one submission from moving a run's figures.
	const least = 4
	r.started = time.Now()
	var firstTraced *submission
	var tracedHub *hubService
	for k := 0; r.timeLeft(k, least); k++ {
		seed := subSeed(r.seed, k)
		es, hh, err := setUp(freshStore(), nil, true)
		if err != nil {
			return err
		}
		s := submit(hh, es, seed, false)
		hh.stop()
		if s == nil {
			continue
		}
		entry := map[string]any{
			"seed": seed, "wall_s": s.wall.Seconds(), "first_result_s": s.first.Seconds(),
			"queued_s": s.prepare.Seconds(), "alloc_mb": float64(s.allocB) / mb,
		}
		if p := hh.params.Load(); p != nil {
			entry["tuned"] = knobRecord(*p)
		}
		r.log = append(r.log, entry)
		if !r.traced {
			r.sample("wall_s", s.wall.Seconds())
			r.sample("cpu_s", s.cpu.Seconds())
			qd, qa := s.qor()
			r.sample("qor_delay_ps", qd)
			r.sample("qor_area_um2", qa)
			r.sample("alloc_mb", float64(s.allocB)/mb)
			if liveHeapSample(k) {
				r.sample("live_heap_mb", float64(s.liveHeapB)/mb)
			}
			continue
		}
		// Traced twin: the same submission on a new hub and store with
		// every worker's runner recording spans.
		tes, th, err := setUp(freshStore(), r.tr, false)
		if err != nil {
			return err
		}
		r.tr.newRun()
		mark := r.tr.mark()
		top := r.tr.open(0, "submission")
		ts := submit(th, tes, seed, false)
		r.tr.close(top, 0)
		if ts == nil {
			th.stop()
			continue
		}
		spans := r.tr.since(mark)
		r.sample("flows.first_result_s", s.first.Seconds())
		r.sample("trace.overhead_frac", ts.wall.Seconds()/s.wall.Seconds()-1)
		r.sample("trace.coverage", (union(spans, "worker.job")+ts.prepare).Seconds()/ts.wall.Seconds())
		r.sampleHubTraced(ts, th, spans)
		if firstTraced == nil {
			firstTraced, tracedHub = ts, th
		} else {
			th.stop()
		}
	}
	if firstTraced == nil {
		return nil
	}
	defer tracedHub.stop()
	// The store's read path: the first traced submission again on its
	// hub, whose store now holds that submission's records. The store
	// may only skip work, so the prefilter must answer every oracle call
	// and the outcome must match the first's.
	seed := subSeed(r.seed, 0)
	if ws := submit(tracedHub, entries, seed, true); ws != nil {
		r.sample("shard.prefilter_hits", float64(ws.stats.PrefilterHits))
		r.sample("shard.store_loaded", float64(ws.stats.StoreLoaded))
	}
	return r.probeHub(firstTraced, tracedHub, entries, lib, seed)
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// sampleHubTraced records the layer counters a traced submission
// returned: the shard session's Stats and every point's anneal.Result.
func (r *run) sampleHubTraced(s *submission, h *hubService, spans []span) {
	st := s.stats
	r.sample("shard.bytes_sent", float64(st.BytesSent))
	r.sample("shard.bytes_received", float64(st.BytesReceived))
	r.sample("shard.seed_bytes", float64(st.SeedBytes))
	r.sample("shard.job_sends", float64(st.JobSends))
	r.sample("shard.requeues", float64(st.Requeues))
	r.sample("shard.cache_duplicates", float64(st.CacheDuplicates))
	r.sample("shard.store_flushed", float64(st.StoreFlushed))
	r.sample("shard.register_ms", float64(h.register)/float64(time.Millisecond))
	if p := h.params.Load(); p != nil {
		r.sampleTune(*p)
	}
	npts := 0
	var rs []*anneal.Result
	var move, ev time.Duration
	var best *aig.AIG
	for _, sr := range s.results {
		for _, p := range sr.Points {
			npts++
			rs = append(rs, p.Result)
			move += p.Result.MoveTime
			ev += p.Result.EvalTime + p.Result.InitialEvalTime
			if best == nil {
				best = p.Result.Best
			}
		}
	}
	r.sample("flows.points_per_s", float64(npts)/s.wall.Seconds())
	r.sampleAnnealCounters(rs)
	// Every oracle call under a ground-truth sweep's cache is a signoff
	// evaluation, plus one re-evaluation of each point's best graph.
	calls := npts
	for _, res := range rs {
		calls += int(res.FullEvals + res.DeltaEvals)
	}
	r.sample("signoff.calls", float64(calls))
	r.sample("signoff.busy_s", ev.Seconds())
	r.sample("anneal.move_s", move.Seconds())
	r.sample("anneal.eval_s", ev.Seconds())
	jobD, jobs := busy(spans, "worker.job")
	if jobs > 0 {
		r.sample("anneal.loop_s", jobD.Seconds()/float64(jobs))
	}
	r.sample("aig.best_ands", float64(best.NumAnds()))
	r.sample("aig.best_levels", float64(best.MaxLevel()))
}
