package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/dataset"
	"aigtimer/internal/eval"
	"aigtimer/internal/features"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/signoff"
	"aigtimer/internal/transform"
)

type flowKind int

const (
	flowGroundTruth flowKind = iota
	flowML
)

const (
	// singleDesign is the largest suite design (599 ANDs, 59 levels)
	// and one the ML models never see in training.
	singleDesign = "EX02"
	// singleIters is aigopt's default -iters.
	singleIters = 150
	// mlSamplesPerDesign sizes the ML training set built during set-up.
	mlSamplesPerDesign = 60
	// mlDataSeed fixes the training set: the models are set-up products
	// like a shipped model file, so every workload seed meets the same
	// predictor and the seed varies only the optimization.
	mlDataSeed = 1
)

// mlTrainDesigns are the paper's four training designs.
var mlTrainDesigns = []string{"EX00", "EX08", "EX28", "EX68"}

// singleSetup is what one optimization needs before the user's clock
// starts: the design, the library, the input's signoff and, for the ML
// flow, trained delay and area models.
type singleSetup struct {
	g                  *aig.AIG
	lib                *cell.Library
	input              signoff.Result
	delay, area        *gbdt.Model
	generate, training time.Duration
}

func setupSingle(flow flowKind) (*singleSetup, error) {
	d, err := bench.ByName(singleDesign)
	if err != nil {
		return nil, err
	}
	s := &singleSetup{g: d.Build(), lib: cell.Builtin()}
	if s.input, err = signoff.Evaluate(s.g, s.lib); err != nil {
		return nil, err
	}
	if flow != flowML {
		return s, nil
	}
	t0 := time.Now()
	var samples []dataset.Sample
	for _, name := range mlTrainDesigns {
		td, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		ss, err := dataset.Generate(name, td.Build(), dataset.DefaultGenParams(mlSamplesPerDesign, mlDataSeed))
		if err != nil {
			return nil, err
		}
		samples = append(samples, ss...)
	}
	s.generate = time.Since(t0)
	t1 := time.Now()
	if s.delay, s.area, err = trainModels(samples, mlDataSeed); err != nil {
		return nil, err
	}
	s.training = time.Since(t1)
	return s, nil
}

// trainModels fits the delay model and the per-AND area model the way
// the experiments do: 90/10 split for early stopping, default params.
func trainModels(samples []dataset.Sample, seed int64) (delay, area *gbdt.Model, err error) {
	X, dl, ar := dataset.Matrix(samples)
	for i := range ar {
		ar[i] /= float64(samples[i].Ands)
	}
	cut := len(X) * 9 / 10
	p := gbdt.DefaultParams
	p.Seed = seed
	if delay, _, err = gbdt.TrainValid(X[:cut], dl[:cut], X[cut:], dl[cut:], p); err != nil {
		return nil, nil, err
	}
	if area, _, err = gbdt.TrainValid(X[:cut], ar[:cut], X[cut:], ar[cut:], p); err != nil {
		return nil, nil, err
	}
	return delay, area, nil
}

// optOutcome is one optimization as the user runs it: AutoTune, then
// anneal.Run, then the signoff of the best graph.
type optOutcome struct {
	params                    anneal.Params
	tune                      anneal.TuneReport
	res                       *anneal.Result
	best                      signoff.Result
	wall, cpu                 time.Duration
	pilot, loop, signoff      time.Duration
	allocBytes, liveHeapBytes uint64
	evalSpans                 []span
}

// optimize runs one optimization at seed. With pinned set the pilot
// still runs (its cost is part of the user's wait) but its knobs are
// replaced by pinned, so a traced repetition replays exactly the
// configuration of the untraced one it is compared with.
func (s *singleSetup) optimize(flow flowKind, seed int64, pinned *anneal.Params, tr *tracer) (*optOutcome, error) {
	var gt *flows.GroundTruth
	var ev eval.Evaluator
	if flow == flowGroundTruth {
		gt = flows.NewGroundTruth(s.lib)
		defer gt.Close()
		ev = gt
	} else {
		ev = &flows.ML{DelayModel: s.delay, AreaModel: s.area, AreaPerNode: true}
	}
	var phase atomic.Int64
	if tr != nil {
		tr.newRun()
		ev = record(ev, tr, func() int { return int(phase.Load()) })
	}
	mark := tr.mark()
	p := anneal.DefaultParams
	p.Iterations = singleIters
	p.Seed = seed

	o := &optOutcome{}
	runtime.GC()
	alloc0 := totalAlloc()
	cpu0 := cpuTime()
	t0 := time.Now()
	top := tr.open(0, "optimize")
	phase.Store(int64(tr.open(top, "pilot")))
	tuned, rep, err := anneal.AutoTune(s.g, ev, p)
	if err != nil {
		return nil, err
	}
	tr.close(int(phase.Load()), 0)
	o.pilot = time.Since(t0)
	if pinned != nil {
		tuned = *pinned
	}
	if gt != nil {
		gt.Parallelism = anneal.EffectiveParallelism(tuned.Parallelism)
	}
	t1 := time.Now()
	loop := tr.open(top, "loop")
	phase.Store(int64(loop))
	res, err := anneal.Run(s.g, ev, tuned)
	if err != nil {
		return nil, err
	}
	tr.close(loop, res.TotalSteps())
	o.loop = time.Since(t1)
	t2 := time.Now()
	sid := tr.open(top, "signoff")
	best, err := signoff.Evaluate(res.Best, s.lib)
	if err != nil {
		return nil, err
	}
	tr.close(sid, 1)
	o.signoff = time.Since(t2)
	o.wall = time.Since(t0)
	tr.close(top, 0)
	o.cpu = cpuTime() - cpu0
	o.allocBytes = totalAlloc() - alloc0
	// The live heap is the idle process's, as on the hub workloads whose
	// workers have ended their session: the result stays, the evaluator
	// (unused from here on) and its pools go.
	if gt != nil {
		gt.Close()
	}
	o.liveHeapBytes = heapAfterGC()
	tr.add(loop, "move", res.MoveTime, 0)
	tr.add(loop, "eval.loop", res.EvalTime+res.InitialEvalTime, res.Evals)
	o.params, o.tune, o.res, o.best = tuned, rep, res, best
	o.evalSpans = tr.since(mark)
	return o, nil
}

// point renders one optimization as a sweep point, the unit
// flows.CanonicalizeSweep digests.
func (o *optOutcome) point() flows.SweepPoint {
	return flows.SweepPoint{
		DelayWeight: o.params.DelayWeight, AreaWeight: o.params.AreaWeight, Decay: o.params.DecayRate,
		Result: o.res, TrueDelayPS: o.best.DelayPS, TrueAreaUM2: o.best.AreaUM2,
	}
}

// subSeed derives the k-th optimization seed of a run: every run
// optimizes several seeds so that its medians average over
// trajectories, and the same run seed always yields the same list.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// warmupK is the sub-seed index of the untimed warm-up optimization or
// submission, a seed no timed repetition uses.
const warmupK = 999

func runSingle(r *run, flow flowKind) error {
	// Every set-up is timed and setup_s is the median. The ML set-up
	// trains models for seconds and runs three times up front; the
	// ground-truth set-up takes milliseconds and runs once up front and
	// again before every timed optimization, which then uses it, so its
	// samples spread over the window like the optimizations' own.
	var probe []float64
	setUp := func() (*singleSetup, error) {
		// A set-up taken after an optimization would otherwise pay for
		// collecting that optimization's garbage, as a fresh process's
		// does not.
		runtime.GC()
		t0 := time.Now()
		ns, err := setupSingle(flow)
		if err != nil {
			return nil, err
		}
		r.sample("setup_s", time.Since(t0).Seconds())
		if flow == flowML {
			// Equal set-ups must train equal models.
			x := features.Extract(ns.g)
			p := []float64{ns.delay.Predict(x), ns.area.Predict(x)}
			if probe != nil && (p[0] != probe[0] || p[1] != probe[1]) {
				r.invariant(fmt.Errorf("set-ups trained different models (%v vs %v)", p, probe))
			}
			probe = p
			r.sample("dataset.generate_s", ns.generate.Seconds())
			r.sample("gbdt.train_s", ns.training.Seconds())
		}
		return ns, nil
	}
	upFront := 1
	if flow == flowML {
		upFront = 3
	}
	var s *singleSetup
	for i := 0; i < upFront; i++ {
		ns, err := setUp()
		if err != nil {
			return err
		}
		s = ns
	}
	checker, err := newEquivChecker(s.g)
	if err != nil {
		return err
	}
	r.invariant(checker.selfTest())

	// Warm-up: the first optimization in a process fills process-wide
	// tables (transform synthesis programs, simulation patterns) and
	// grows the heap; it is checked but not timed, so every timed
	// repetition measures the same steady state.
	if w, err := s.optimize(flow, subSeed(r.seed, warmupK), nil, nil); err != nil {
		r.op(fmt.Errorf("warm-up: %w", err))
	} else {
		r.op(r.checkOutcome(checker, subSeed(r.seed, warmupK), w))
	}

	r.started = time.Now()
	var firstTraced *optOutcome
	for k := 0; r.timeLeft(k, 2); k++ {
		seed := subSeed(r.seed, k)
		if flow == flowGroundTruth {
			ns, err := setUp()
			if err != nil {
				return err
			}
			s = ns
		}
		if r.traced {
			// Prime: the first optimization of a seed fills process-wide
			// tables (transform synthesis programs) with its trajectory's
			// entries. An untimed run of the seed lets the two timed twins
			// below start from the same tables.
			if _, err := s.optimize(flow, seed, nil, nil); err != nil {
				r.op(fmt.Errorf("priming seed %d: %w", seed, err))
				continue
			}
		}
		o, err := s.optimize(flow, seed, nil, nil)
		if err != nil {
			r.op(fmt.Errorf("seed %d: %w", seed, err))
			continue
		}
		r.op(r.checkOutcome(checker, seed, o))
		entry := map[string]any{
			"seed": seed, "wall_s": o.wall.Seconds(), "best_cost": o.res.BestCost,
			"tuned": knobRecord(o.params),
			"pilot": map[string]any{
				"accept_rate": o.tune.AcceptRate, "full_eval_us": o.tune.FullEval.Microseconds(),
				"delta_eval_us": o.tune.DeltaEval.Microseconds(),
			},
		}
		if !r.traced {
			r.sample("wall_s", o.wall.Seconds())
			r.sample("cpu_s", o.cpu.Seconds())
			r.sample("qor_delay_ps", o.best.DelayPS)
			r.sample("qor_area_um2", o.best.AreaUM2)
			r.sample("alloc_mb", float64(o.allocBytes)/mb)
			if liveHeapSample(k) {
				r.sample("live_heap_mb", float64(o.liveHeapBytes)/mb)
			}
			r.log = append(r.log, entry)
			continue
		}
		// Traced repetition of the same seed and knobs; it must follow
		// the untraced trajectory exactly.
		t, err := s.optimize(flow, seed, &o.params, r.tr)
		if err != nil {
			r.op(fmt.Errorf("traced seed %d: %w", seed, err))
			continue
		}
		r.invariant(sameTrajectory(o.res, t.res))
		r.op(r.checkOutcome(checker, seed, t))
		entry["traced_wall_s"] = t.wall.Seconds()
		r.log = append(r.log, entry)
		r.sample("trace.overhead_frac", t.wall.Seconds()/o.wall.Seconds()-1)
		r.sample("flows.first_result_s", o.wall.Seconds()) // one optimization, one result
		r.sampleTraced(flow, t)
		if firstTraced == nil {
			firstTraced = t
		}
	}
	if r.traced && firstTraced != nil {
		if err := probeLayers(r, s.lib, []*aig.AIG{s.g, firstTraced.res.Best}, s.delay); err != nil {
			return err
		}
		if err := r.probeSingleService(); err != nil {
			return err
		}
	}
	return nil
}

// checkOutcome certifies one optimization: the best graph computes the
// input's function, and its outcome matches the recorded reference.
func (r *run) checkOutcome(c *equivChecker, seed int64, o *optOutcome) error {
	t0 := time.Now()
	err := c.check(o.res.Best)
	r.sample("check.equiv_ms", float64(time.Since(t0))/float64(time.Millisecond))
	if err != nil {
		return fmt.Errorf("seed %d: best graph: %w", seed, err)
	}
	return r.checkRef(r.workload, seed, reference{
		BestCost: o.res.BestCost, QoRDelayPS: o.best.DelayPS, QoRAreaUM2: o.best.AreaUM2,
		Digest: digest([]flows.SweepPoint{o.point()}),
	})
}

// sameTrajectory reports a traced run that diverged from its untraced
// twin in cost or in the evaluation counters.
func sameTrajectory(a, b *anneal.Result) error {
	if a.BestCost != b.BestCost || a.Evals != b.Evals || a.DeltaEvals != b.DeltaEvals || a.FullEvals != b.FullEvals {
		return fmt.Errorf("traced run diverged: best_cost %v/%v evals %d/%d delta %d/%d full %d/%d",
			a.BestCost, b.BestCost, a.Evals, b.Evals, a.DeltaEvals, b.DeltaEvals, a.FullEvals, b.FullEvals)
	}
	return nil
}

// knobRecord lists the AutoTune-resolved knobs a run used, for the
// results file.
func knobRecord(p anneal.Params) map[string]any {
	return map[string]any{
		"batch_min": p.BatchMin, "batch_max": p.BatchMax, "workers": p.Workers,
		"parallelism": p.Parallelism, "threshold": p.IncrementalThreshold,
	}
}

// sampleTraced records the per-layer counters one traced optimization
// returns, and its span totals.
func (r *run) sampleTraced(flow flowKind, o *optOutcome) {
	res := o.res
	r.sample("anneal.pilot_s", o.pilot.Seconds())
	r.sample("anneal.loop_s", o.loop.Seconds())
	r.sample("anneal.move_s", res.MoveTime.Seconds())
	r.sample("anneal.eval_s", (res.EvalTime + res.InitialEvalTime).Seconds())
	r.sampleAnnealCounters([]*anneal.Result{res})
	r.sampleTune(o.params)
	covered := o.pilot + res.MoveTime + res.EvalTime + res.InitialEvalTime + o.signoff
	r.sample("trace.coverage", covered.Seconds()/o.wall.Seconds())

	calls, busyD := 1, o.signoff // the final signoff of the best graph
	if flow == flowGroundTruth {
		for _, sp := range o.evalSpans {
			if sp.Name == "eval" || sp.Name == "eval.delta" {
				calls += sp.Count
				busyD += sp.dur()
			}
		}
	}
	r.sample("signoff.calls", float64(calls))
	r.sample("signoff.busy_s", busyD.Seconds())
	r.sample("flows.points_per_s", 1/o.wall.Seconds())
	r.sample("aig.best_ands", float64(res.Best.NumAnds()))
	r.sample("aig.best_levels", float64(res.Best.MaxLevel()))
}

// sampleAnnealCounters records the counters anneal.Result carries,
// summed over the given runs.
func (r *run) sampleAnnealCounters(rs []*anneal.Result) {
	var evals, spec, acc, steps int
	var hits, misses, delta, full int64
	atoms := map[string]int{}
	recipes := map[string][]string{}
	for _, rc := range transform.Recipes() {
		recipes[rc.Name] = rc.Steps
	}
	for _, res := range rs {
		evals += res.Evals
		spec += res.SpeculativeEvals
		acc += res.Accepted
		steps += res.TotalSteps()
		hits += res.CacheHits
		misses += res.CacheMisses
		delta += res.DeltaEvals
		full += res.FullEvals
		for _, st := range res.History {
			for _, a := range recipes[st.Recipe] {
				atoms[a]++
			}
		}
	}
	r.sample("anneal.evals", float64(evals))
	r.sample("anneal.spec_waste_frac", ratio(float64(spec), float64(evals)))
	r.sample("anneal.accept_rate", ratio(float64(acc), float64(steps)))
	r.sample("eval.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	r.sample("eval.full_evals", float64(full))
	r.sample("eval.delta_evals", float64(delta))
	r.sample("eval.delta_frac", ratio(float64(delta), float64(delta+full)))
	for _, a := range transformAtoms {
		r.sample("transform."+a+"_calls", float64(atoms[a]))
	}
}

func (r *run) sampleTune(p anneal.Params) {
	r.sample("anneal.tuned_workers", float64(p.Workers))
	r.sample("anneal.tuned_batch_max", float64(p.BatchMax))
	r.sample("anneal.tuned_parallelism", float64(anneal.EffectiveParallelism(p.Parallelism)))
	thr := p.IncrementalThreshold
	if thr == 0 {
		thr = 0.75 // eval.Incremental's default, used when the pilot saw no delta path
	}
	r.sample("anneal.tuned_threshold", thr)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
