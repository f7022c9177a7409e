package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/dataset"
	"aigtimer/internal/eval"
	"aigtimer/internal/features"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/netlist"
	"aigtimer/internal/signoff"
	"aigtimer/internal/sta"
	"aigtimer/internal/techmap"
	"aigtimer/internal/transform"
)

// transformAtoms are the basic transforms every recipe is built from.
var transformAtoms = []string{"b", "br", "rw", "rwz", "rf", "rfz", "rs", "rsz", "ex", "fr"}

// signoffHighEffort mirrors the second mapping configuration
// signoff.Evaluate runs next to techmap.DefaultParams.
var signoffHighEffort = techmap.Params{Cut: cut.Params{K: 4, MaxCuts: 24}, NominalLoadFF: 6.0, AreaRecovery: true}

// moveCuts is the enumeration the rewrite move runs.
var moveCuts = cut.Params{K: 4, MaxCuts: 8}

// probeRepeats is how often each layer call is timed per graph.
const probeRepeats = 3

// timeCall runs f repeats times and records each duration in unit.
func (r *run) timeCall(name string, unit time.Duration, repeats int, f func()) {
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		f()
		r.sample(name, float64(time.Since(t0))/float64(unit))
	}
}

// timeBatch times n calls of a microsecond-scale function as one
// sample, reported per call.
func (r *run) timeBatch(name string, unit time.Duration, n int, f func()) {
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			f()
		}
		r.sample(name, float64(time.Since(t0))/float64(unit)/float64(n))
	}
}

// probeLayers times the public entry points of every layer on the given
// graphs (a workload's input and best graphs): each call's median is
// the layer metric. A graph's delta probes use one rewrite move from it.
// Without a model (workloads off the ML path) a small probe model is
// trained on the first graph so the inference layer still gets timed.
func probeLayers(r *run, lib *cell.Library, graphs []*aig.AIG, model *gbdt.Model) error {
	rw, _ := transform.Named("rw")
	for gi, g := range graphs {
		g.Levels()
		g.FanoutCounts()
		for _, a := range transformAtoms {
			fn, ok := transform.Named(a)
			if !ok {
				return fmt.Errorf("transform %q not in the catalog", a)
			}
			for i := 0; i < probeRepeats; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				t0 := time.Now()
				fn(g, rng)
				r.sample("transform."+a+"_ms", float64(time.Since(t0))/float64(time.Millisecond))
			}
		}
		moved := rw(g, rand.New(rand.NewSource(int64(gi))))
		var next *aig.AIG
		var d *aig.Delta
		r.timeCall("transform.rebase_ms", time.Millisecond, probeRepeats, func() { next, d = aig.Rebase(g, moved) })

		n := g.NumNodes()
		low, high, cuts := make([][]cut.Cut, n), make([][]cut.Cut, n), make([][]cut.Cut, n)
		var arena cut.Arena
		var scratch cut.Scratch
		r.timeCall("cut.enum_dual_ms", time.Millisecond, probeRepeats, func() {
			arena.Reset()
			cut.EnumerateDualArena(g, techmap.DefaultParams.Cut, signoffHighEffort.Cut, low, high, &arena, &scratch)
		})
		r.timeCall("cut.enum_move_ms", time.Millisecond, probeRepeats, func() {
			arena.Reset()
			cut.EnumerateArena(g, moveCuts, cuts, &arena, &scratch)
		})

		var err error
		var nl *netlist.Netlist
		r.timeCall("techmap.map_low_ms", time.Millisecond, probeRepeats, func() { nl, err = techmap.Map(g, lib, techmap.DefaultParams) })
		if err != nil {
			return err
		}
		r.timeCall("techmap.map_high_ms", time.Millisecond, probeRepeats, func() { _, err = techmap.Map(g, lib, signoffHighEffort) })
		if err != nil {
			return err
		}
		r.sample("techmap.gates", float64(nl.NumGates()))
		nl0, ms0, err := techmap.MapState(g, lib, techmap.DefaultParams)
		if err != nil {
			return err
		}
		var nl1 *netlist.Netlist
		var nm netlist.NetMap
		r.timeCall("techmap.remap_ms", time.Millisecond, probeRepeats, func() { nl1, _, nm, err = techmap.Remap(ms0, next, d) })
		if err != nil {
			return err
		}
		var sr0 *sta.SignoffResult
		r.timeCall("sta.signoff_ms", time.Millisecond, probeRepeats, func() { sr0, err = sta.Signoff(nl0, sta.SignoffParams{}) })
		if err != nil {
			return err
		}
		r.timeCall("sta.update_ms", time.Millisecond, probeRepeats, func() { _, err = sta.SignoffUpdate(sr0, nl1, nm, sta.SignoffParams{}) })
		if err != nil {
			return err
		}

		if err := r.probeSignoff(g, next, d, lib); err != nil {
			return err
		}

		var v features.Vector
		r.timeBatch("features.extract_us", time.Microsecond, 20, func() { v = features.Extract(g) })
		if model == nil {
			if model, err = probeModel(r, g); err != nil {
				return err
			}
		}
		r.timeBatch("gbdt.predict_us", time.Microsecond, 200, func() { model.Predict(v) })

		var data []byte
		r.timeBatch("aig.encode_delta_us", time.Microsecond, 20, func() { data, err = aig.EncodeDelta(g, next) })
		if err != nil {
			return err
		}
		r.timeBatch("aig.decode_delta_us", time.Microsecond, 20, func() { _, err = aig.DecodeDelta(g, data) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSignoff times one full evaluation (sequential and two-lane
// pools) and one delta evaluation of next against g's state.
func (r *run) probeSignoff(g, next *aig.AIG, d *aig.Delta, lib *cell.Library) error {
	pool := signoff.NewPool()
	defer pool.Close()
	var st *signoff.EvalState
	var err error
	r.timeCall("signoff.full_ms", time.Millisecond, probeRepeats, func() {
		if st != nil {
			st.Release()
		}
		_, st, err = pool.EvaluateState(g, lib)
	})
	if err != nil {
		return err
	}
	r.timeCall("signoff.delta_ms", time.Millisecond, probeRepeats, func() {
		var ns *signoff.EvalState
		if _, ns, err = st.EvaluateDelta(next, d); err == nil {
			ns.Release()
		}
	})
	st.Release()
	if err != nil {
		return err
	}
	// Two lanes need two cores: this probe alone runs on two, so its
	// time against signoff.full_ms shows what a second core buys.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	par := signoff.NewPoolParallel(2)
	defer par.Close()
	r.timeCall("signoff.full_par2_ms", time.Millisecond, probeRepeats, func() {
		var ps *signoff.EvalState
		if _, ps, err = par.EvaluateState(g, lib); err == nil {
			ps.Release()
		}
	})
	return err
}

// probeModel trains a small delay model on variants of g for workloads
// that never build one, timing generation and training as the probes of
// those layers.
func probeModel(r *run, g *aig.AIG) (*gbdt.Model, error) {
	t0 := time.Now()
	ss, err := dataset.Generate("probe", g, dataset.DefaultGenParams(16, 1))
	if err != nil {
		return nil, err
	}
	r.sample("dataset.generate_s", time.Since(t0).Seconds())
	t1 := time.Now()
	delay, _, err := trainModels(ss, 1)
	if err != nil {
		return nil, err
	}
	r.sample("gbdt.train_s", time.Since(t1).Seconds())
	return delay, nil
}

// probeStore times opening a store file and counts its records.
func (r *run) probeStore(path string) error {
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		s, err := eval.OpenStore(path)
		if err != nil {
			return err
		}
		r.sample("eval.store_open_ms", float64(time.Since(t0))/float64(time.Millisecond))
		r.sample("eval.store_records", float64(s.Len()))
		s.Close()
	}
	return nil
}

// probeSingleService times the sweep-service layers a single
// optimization never touches: hub start with worker registration and
// opening an empty store.
func (r *run) probeSingleService() error {
	dir := filepath.Join(outDir, fmt.Sprintf("probe-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i := 0; i < probeRepeats; i++ {
		h, err := startHub(filepath.Join(dir, fmt.Sprintf("h%d.store", i)), hubWorkers(), nil)
		if err != nil {
			return err
		}
		r.sample("shard.register_ms", float64(h.register)/float64(time.Millisecond))
		h.stop()
	}
	return r.probeStore(filepath.Join(dir, "empty.store"))
}

// probeHub times the layers of a hub workload: the coordinator's
// AutoTune pilot (which runs inside the submit call), opening the store
// the submission left behind, and every layer call on the suite's input
// and best graphs.
func (r *run) probeHub(s *submission, h *hubService, entries []flows.SuiteEntry, lib *cell.Library, seed int64) error {
	for i := 0; i < probeRepeats; i++ {
		t0 := time.Now()
		if _, _, err := anneal.AutoTune(entries[0].G, flows.NewGroundTruth(lib), hubConfig(seed).Base); err != nil {
			return err
		}
		r.sample("anneal.pilot_s", time.Since(t0).Seconds())
	}
	// The hub flushes at session end; a copy shows what the next warm
	// start opens.
	path := h.store.Path() + ".probe"
	if err := copyFile(h.store.Path(), path); err != nil {
		return err
	}
	if err := r.probeStore(path); err != nil {
		return err
	}
	graphs := []*aig.AIG{}
	for e, res := range s.results {
		graphs = append(graphs, entries[e].G, res.Points[0].Result.Best)
	}
	return probeLayers(r, lib, graphs, nil)
}
