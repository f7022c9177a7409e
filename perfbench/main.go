// Command perfbench is aigtimer's benchmark: three workloads over the
// paper's two optimization flows and the resident sweep service, each
// measured end to end (tracing off) or broken down per layer (tracing
// on), with every result checked for functional equivalence and against
// recorded references.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload gt-ex02 --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the metric names and units are
// the ones BENCHMARK.json lists. perfbench/README.md describes the
// workloads, the metrics and what each layer is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind (results, spans, stores);
// the wrapper builds into the same directory.
const outDir = ".bench_build"

// benchProcs is the core budget of every measured workload: the process
// runs with GOMAXPROCS 1, and AutoTune resolves its knobs for that
// budget. On a host that lends a few vCPUs of a shared machine, a
// process that keeps both of two vCPUs busy waits on whichever is
// descheduled at every join, and AutoTune's pilot reads that contention
// and picks different knobs, so its times measure the host's scheduler.
// One busy thread does the same work on every run and leaves the other
// vCPU to the kernel and the host. Only the signoff.full_par2_ms probe
// raises the budget, for its own calls.
const benchProcs = 1

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// run is the state of one benchmark invocation: what it measured,
// what failed, and what it records for explaining the spread.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	update   bool

	refs references
	tr   *tracer

	samples   map[string][]float64
	attempted int
	failed    int
	failures  []string
	unchecked int   // outcomes without a recorded reference
	log       []any // per-repetition records for the results file
	started   time.Time
}

func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// op counts one operation (a run or a grid point) and its failure, if
// any.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// invariant records a failed check that is not tied to one operation
// (for example two repetitions that should agree).
func (r *run) invariant(err error) {
	if err != nil {
		r.failures = append(r.failures, err.Error())
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

func (r *run) checkRef(key string, seed int64, got reference) error {
	checked, err := r.refs.compare(key, seed, got, r.update)
	if !checked {
		r.unchecked++
	}
	return err
}

// timeLeft reports whether another repetition should start: always
// until least repetitions ran, then while one more of average length
// would end inside the measuring window.
func (r *run) timeLeft(done, least int) bool {
	if done < least {
		return true
	}
	el := time.Since(r.started)
	return el+el/time.Duration(done) <= r.seconds
}

// liveHeapSample reports whether the k-th timed optimization or
// submission of a run samples live_heap_mb: only the first does.
// Process-wide tables grow with every distinct optimization (by 1 to
// 2 MB per gt-ex02 repetition, more on some seeds), so a live heap
// sampled over however many repetitions fit in the window would rise
// when the code gets faster, and every later sample adds its seed's
// growth to the spread. Allocation per repetition shows no such trend
// and is sampled over the whole window.
func liveHeapSample(k int) bool { return k == 0 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC forces collections and returns the live heap in bytes.
// The second collection frees what the first only moved into sync.Pool
// victim caches.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

const mb = 1 << 20

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the measuring window")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	update := flag.Bool("update-references", false, "record this run's outcomes in perfbench/references.json instead of checking them")
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)
	if err := mainErr(*workload, *seed, *seconds, *trace == 1, *update); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, traced, update bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "results"), 0o755); err != nil {
		return err
	}
	r := &run{
		workload: workload, seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		traced: traced, update: update, refs: refs, samples: map[string][]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	env := stamp()
	fmt.Printf("env: num_cpu=%d gomaxprocs=%d go=%s %s/%s commit=%s source_sha256=%s\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH, env.Commit, env.SourceHash)

	switch workload {
	case "gt-ex02":
		err = runSingle(r, flowGroundTruth)
	case "ml-ex02":
		err = runSingle(r, flowML)
	case "hub-cold":
		err = runHub(r)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	if update {
		if err := refs.save(); err != nil {
			return err
		}
	}

	if r.attempted > 0 {
		r.samples["ok_frac"] = []float64{float64(r.attempted-r.failed) / float64(r.attempted)}
	}
	defs := bf.EndToEnd
	if traced {
		defs = bf.PerLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		xs, ok := r.samples[d.Name]
		v := 0.0 // a layer this workload never calls reports zero work
		if ok {
			v = median(xs)
		} else if !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a number", d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}

	base := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, map[bool]int{false: 0, true: 1}[traced])
	record := map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
		"env": env, "repetitions": r.log, "samples": r.samples,
		"failures": r.failures, "unchecked_references": r.unchecked,
	}
	rb, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results", base+".json"), rb, 0o644); err != nil {
		return err
	}
	if err := r.tr.write(filepath.Join(outDir, "results", base+".spans.json")); err != nil {
		return err
	}
	if r.unchecked > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d outcomes have no recorded reference for seed %d (checked for equivalence and self-consistency only)\n", r.unchecked, seed)
	}
	if len(r.failures) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d checks failed:\n  %s\n", len(r.failures), strings.Join(r.failures, "\n  "))
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(r.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
