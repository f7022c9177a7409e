// Differential test harness for incremental evaluation: random
// transform sequences over seeded random AIGs, asserting that the
// incremental oracle returns bit-identical metrics to a full rebuild at
// every step, for every flow evaluator, and that annealer trajectories
// are byte-identical with the incremental path on and off. This is the
// proof-by-continuous-verification the incremental subsystem ships
// with: exactness is a tested invariant, not a design intention.
package eval_test

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/dataset"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/transform"
)

// harnessAIG builds a random strashed AIG; equal seeds give equal graphs.
func harnessAIG(seed int64, numPIs, numAnds, numPOs int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	b := aig.NewBuilder(numPIs)
	lits := make([]aig.Lit, 0, numPIs+numAnds)
	for i := 0; i < numPIs; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < numPIs+numAnds {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		c := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(a, c))
	}
	for i := 0; i < numPOs; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(len(lits)/2)].NotIf(rng.Intn(2) == 0))
	}
	return b.Build().Compact()
}

// walkSteps is the per-graph length of a differential random walk.
func walkSteps(t *testing.T, full int) int {
	if testing.Short() {
		return full / 8
	}
	return full
}

// differentialWalk drives `steps` random transform moves from g0,
// scoring every candidate through both oracles and failing on the first
// metric divergence. Returns the number of steps taken.
func differentialWalk(t *testing.T, g0 *aig.AIG, incOracle, fullOracle eval.Oracle, steps int, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recipes := transform.Recipes()
	// Anchor the starting state in the incremental oracle, as the
	// annealer's initial evaluation does.
	if m0, mf := incOracle.Evaluate(g0), fullOracle.Evaluate(g0); m0 != mf {
		t.Fatalf("initial metrics diverge: incremental %+v full %+v", m0, mf)
	}
	cur := g0
	for s := 0; s < steps; s++ {
		r := recipes[rng.Intn(len(recipes))]
		next, d := r.ApplyTracked(cur, rng)
		mInc := incOracle.Evaluate(next)
		mFull := fullOracle.Evaluate(next)
		if mInc != mFull {
			t.Fatalf("step %d (%s, %v): incremental %+v != full %+v", s, r.Name, d, mInc, mFull)
		}
		next.ClearProvenance()
		if rng.Intn(2) == 0 { // wander: accept about half the moves
			cur = next
		}
	}
	return steps
}

// TestDifferentialGroundTruthExact is the core harness: >= 1000 random
// transform steps across several seeded AIGs, ground-truth incremental
// metrics bit-identical to full rebuilds at every step.
func TestDifferentialGroundTruthExact(t *testing.T) {
	lib := cell.Builtin()
	total := 0
	deltaServed := int64(0)
	for i, shape := range []struct {
		seed                  int64
		pis, ands, pos, steps int
	}{
		{1, 5, 60, 2, 260},
		{2, 7, 120, 4, 260},
		{3, 4, 40, 1, 260},
		{4, 8, 150, 3, 260},
	} {
		g0 := harnessAIG(shape.seed, shape.pis, shape.ands, shape.pos)
		// DirtyThreshold 1 exercises the delta path on every anchored
		// candidate regardless of cone size; exactness must hold anyway.
		incOracle := eval.NewIncremental(flows.NewGroundTruth(lib),
			eval.IncrementalParams{DirtyThreshold: 1, MaxStates: 4})
		inc, ok := incOracle.(*eval.Incremental)
		if !ok {
			t.Fatal("ground truth lost its delta capability")
		}
		total += differentialWalk(t, g0, incOracle, flows.NewGroundTruth(lib),
			walkSteps(t, shape.steps), int64(100+i))
		deltaServed += inc.Stats().DeltaEvals
	}
	if !testing.Short() && total < 1000 {
		t.Fatalf("harness too small: %d steps", total)
	}
	if deltaServed < int64(total)/2 {
		t.Fatalf("delta path barely exercised: %d of %d steps", deltaServed, total)
	}
}

// TestDifferentialEveryFlowEvaluator runs the harness over all three
// flow evaluators wrapped by the incremental layer: the ground-truth
// oracle takes the real delta path; proxy and ML pass through
// NewIncremental unchanged and must stay bit-identical too.
func TestDifferentialEveryFlowEvaluator(t *testing.T) {
	lib := cell.Builtin()
	g0 := harnessAIG(11, 6, 80, 3)

	samples, err := dataset.Generate("diff", g0, dataset.DefaultGenParams(30, 5))
	if err != nil {
		t.Fatal(err)
	}
	X, delay, _ := dataset.Matrix(samples)
	gp := gbdt.DefaultParams
	gp.NumTrees = 40
	dm, err := gbdt.Train(X, delay, gp)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mk   func() eval.Oracle
	}{
		{"baseline", func() eval.Oracle { return eval.AsOracle(flows.Proxy{}, 0) }},
		{"ml", func() eval.Oracle { return eval.AsOracle(&flows.ML{DelayModel: dm}, 0) }},
		{"ground-truth", func() eval.Oracle { return flows.NewGroundTruth(lib) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			incOracle := eval.NewIncremental(tc.mk(), eval.IncrementalParams{DirtyThreshold: 1})
			differentialWalk(t, g0, incOracle, tc.mk(), walkSteps(t, 64), 7)
		})
	}
}

// TestIncrementalBatchWorkerInvariance scores identical batches of
// tracked candidates through the incremental oracle at different
// worker counts (exercised under -race by CI): values must match the
// full oracle entry for entry, independent of scheduling.
func TestIncrementalBatchWorkerInvariance(t *testing.T) {
	lib := cell.Builtin()
	g0 := harnessAIG(21, 6, 90, 3)
	recipes := transform.Recipes()

	full := flows.NewGroundTruth(lib)
	want := full.Evaluate(g0)

	// Deterministic: every call builds the same batch of tracked moves.
	mkBatch := func() []*aig.AIG {
		batch := make([]*aig.AIG, 12)
		for i := range batch {
			batch[i], _ = recipes[(i*17)%len(recipes)].ApplyTracked(g0, rand.New(rand.NewSource(int64(i))))
		}
		return batch
	}
	ref := full.EvaluateBatch(mkBatch())
	for _, workers := range []int{1, 2, 8} {
		incOracle := eval.NewIncremental(flows.NewGroundTruth(lib),
			eval.IncrementalParams{DirtyThreshold: 1, Workers: workers})
		if m := incOracle.Evaluate(g0); m != want {
			t.Fatalf("workers=%d: initial metrics diverge", workers)
		}
		got := incOracle.EvaluateBatch(mkBatch())
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d entry %d: %+v != %+v", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestDifferentialParallelismInvariance adds the intra-evaluation
// parallelism dimension to the harness: the incremental ground-truth
// oracle with Parallelism lanes inside every evaluation must stay
// bit-identical to the sequential full oracle along a random transform
// walk, at every lane count. Under -race (CI) this also exercises the
// concurrent dual-effort remap and corner-parallel STA through the
// eval layer's anchor store.
func TestDifferentialParallelismInvariance(t *testing.T) {
	lib := cell.Builtin()
	g0 := harnessAIG(41, 6, 100, 3)
	for _, par := range []int{1, 2, 8} {
		gt := flows.NewGroundTruth(lib)
		gt.Parallelism = par
		defer gt.Close()
		incOracle := eval.NewIncremental(gt, eval.IncrementalParams{DirtyThreshold: 1})
		differentialWalk(t, g0, incOracle, flows.NewGroundTruth(lib), walkSteps(t, 96), int64(200+par))
	}
}

// TestIncrementalBatchParallelismInvariance scores identical batches
// at worker x lane combinations: the two concurrency axes compose (a
// batch of evaluations, each internally parallel) without changing a
// single bit of any entry.
func TestIncrementalBatchParallelismInvariance(t *testing.T) {
	lib := cell.Builtin()
	g0 := harnessAIG(22, 6, 90, 3)
	recipes := transform.Recipes()

	full := flows.NewGroundTruth(lib)
	want := full.Evaluate(g0)
	mkBatch := func() []*aig.AIG {
		batch := make([]*aig.AIG, 12)
		for i := range batch {
			batch[i], _ = recipes[(i*13)%len(recipes)].ApplyTracked(g0, rand.New(rand.NewSource(int64(i))))
		}
		return batch
	}
	ref := full.EvaluateBatch(mkBatch())
	for _, workers := range []int{1, 2} {
		for _, par := range []int{2, 8} {
			gt := flows.NewGroundTruth(lib)
			gt.Workers = workers
			gt.Parallelism = par
			defer gt.Close()
			incOracle := eval.NewIncremental(gt, eval.IncrementalParams{DirtyThreshold: 1, Workers: workers})
			if m := incOracle.Evaluate(g0); m != want {
				t.Fatalf("workers=%d par=%d: initial metrics diverge", workers, par)
			}
			got := incOracle.EvaluateBatch(mkBatch())
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d par=%d entry %d: %+v != %+v", workers, par, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestAnnealTrajectoryIdenticalIncremental is the acceptance check on
// the annealer: for a fixed seed, the accepted trajectory with the
// incremental oracle must be byte-identical to the sequential
// full-rebuild trajectory, across batch sizes, chain counts and
// intra-evaluation lane counts.
func TestAnnealTrajectoryIdenticalIncremental(t *testing.T) {
	lib := cell.Builtin()
	g0 := harnessAIG(31, 6, 100, 3)
	iters := 30
	if testing.Short() {
		iters = 10
	}
	for _, cfg := range []struct {
		name   string
		batch  int
		chains int
		par    int
	}{
		{"sequential", 1, 1, 1},
		{"batched", 6, 1, 1},
		{"chained", 4, 2, 1},
		{"parallel", 6, 1, 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			base := anneal.Params{
				Iterations: iters, StartTemp: 0.08, DecayRate: 0.96,
				DelayWeight: 1, AreaWeight: 0.5, Seed: 5,
				BatchSize: cfg.batch, Chains: cfg.chains,
			}
			pOn := base
			pOff := base
			pOff.Incremental = anneal.IncrementalOff
			gt := flows.NewGroundTruth(lib)
			gt.Parallelism = cfg.par
			defer gt.Close()
			rOn, err := anneal.Run(g0, gt, pOn)
			if err != nil {
				t.Fatal(err)
			}
			rOff, err := anneal.Run(g0, flows.NewGroundTruth(lib), pOff)
			if err != nil {
				t.Fatal(err)
			}
			if rOn.BestCost != rOff.BestCost || rOn.Accepted != rOff.Accepted {
				t.Fatalf("summary diverged: on (%v, %d) off (%v, %d)",
					rOn.BestCost, rOn.Accepted, rOff.BestCost, rOff.Accepted)
			}
			if !rOn.Best.StructuralEqual(rOff.Best) {
				t.Fatal("best graphs diverged")
			}
			if len(rOn.History) != len(rOff.History) {
				t.Fatalf("history lengths diverged: %d vs %d", len(rOn.History), len(rOff.History))
			}
			for i := range rOn.History {
				if rOn.History[i] != rOff.History[i] {
					t.Fatalf("trajectories diverged at step %d: %+v vs %+v",
						i, rOn.History[i], rOff.History[i])
				}
			}
			if rOff.DeltaEvals != 0 {
				t.Fatalf("incremental-off run reports %d delta evals", rOff.DeltaEvals)
			}
		})
	}
}
