package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/eval"
	"aigtimer/internal/shard"
)

// span is one timed interval at a layer boundary. Spans of one
// optimization or submission share a Run id; Parent names the span that
// caused this one (0 = top level).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"` // graphs or records the call carried
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the benchmark
// ends. A nil *tracer records nothing, so untraced code paths share the
// traced ones without a branch at every call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id; close ends it. Children name
// their parent by that id, so it is assigned when the span opens.
func (t *tracer) open(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: now, End: now})
	return id
}

func (t *tracer) close(id, count int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
}

// add records an interval a layer measured about itself (a duration it
// returns), placed at the end of its enclosing span.
func (t *tracer) add(parent int, name string, d time.Duration, count int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: end - int64(d), End: end, Count: count})
}

// newRun starts a new span group (one optimization or submission).
func (t *tracer) newRun() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run++
	t.mu.Unlock()
}

// since returns the spans recorded after mark (an earlier len).
func (t *tracer) since(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// busy sums span durations by name.
func busy(spans []span, names ...string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name {
				d += s.dur()
				n++
			}
		}
	}
	return d, n
}

// union returns the wall time covered by at least one of the named
// spans; concurrent spans (parallel evaluations, workers) count once.
func union(spans []span, names ...string) time.Duration {
	var iv [][2]int64
	for _, s := range spans {
		for _, name := range names {
			if s.Name == name {
				iv = append(iv, [2]int64{s.Start, s.End})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	return time.Duration(total + curE - curS)
}

// recorder wraps an evaluator and records a span per call. It forwards
// every optional interface of the evaluation layer unchanged: the
// wrapper types below expose EvaluateBatch and the DeltaEvaluator pair
// exactly when the wrapped evaluator has them, and CheapEval reports
// what eval.IsCheap reports for the wrapped one, so the stack anneal.Run
// builds over a recorder is the stack it builds over the evaluator.
type recorder struct {
	inner  eval.Evaluator
	t      *tracer
	parent func() int
}

func (r *recorder) Name() string    { return r.inner.Name() }
func (r *recorder) CheapEval() bool { return eval.IsCheap(r.inner) }

func (r *recorder) Evaluate(g *aig.AIG) eval.Metrics {
	id := r.t.open(r.parent(), "eval")
	m := r.inner.Evaluate(g)
	r.t.close(id, 1)
	return m
}

type recBatch struct{ *recorder }

func (r recBatch) EvaluateBatch(gs []*aig.AIG) []eval.Metrics {
	id := r.t.open(r.parent(), "eval")
	ms := r.inner.(eval.Oracle).EvaluateBatch(gs)
	r.t.close(id, len(gs))
	return ms
}

type recDelta struct{ *recorder }

func (r recDelta) EvaluateFull(g *aig.AIG) (eval.Metrics, eval.DeltaState) {
	id := r.t.open(r.parent(), "eval")
	m, st := r.inner.(eval.DeltaEvaluator).EvaluateFull(g)
	r.t.close(id, 1)
	return m, st
}

func (r recDelta) EvaluateDelta(prev eval.DeltaState, g *aig.AIG, d *aig.Delta) (eval.Metrics, eval.DeltaState, bool) {
	id := r.t.open(r.parent(), "eval.delta")
	m, st, ok := r.inner.(eval.DeltaEvaluator).EvaluateDelta(prev, g, d)
	r.t.close(id, 1)
	return m, st, ok
}

type recBatchDelta struct {
	recBatch
	recDelta
}

func (r recBatchDelta) Name() string                     { return r.recBatch.Name() }
func (r recBatchDelta) CheapEval() bool                  { return r.recBatch.CheapEval() }
func (r recBatchDelta) Evaluate(g *aig.AIG) eval.Metrics { return r.recBatch.Evaluate(g) }

// record wraps ev in the recorder variant matching its interfaces.
func record(ev eval.Evaluator, t *tracer, parent func() int) eval.Evaluator {
	r := &recorder{inner: ev, t: t, parent: parent}
	_, batch := ev.(eval.Oracle)
	_, delta := ev.(eval.DeltaEvaluator)
	switch {
	case batch && delta:
		return recBatchDelta{recBatch{r}, recDelta{r}}
	case batch:
		return recBatch{r}
	case delta:
		return recDelta{r}
	}
	return r
}

// tracedRunner wraps a worker's shard.Runner and records a span per
// job, preseed push and session boundary (none with a nil tracer), the
// session's resolved parameters, which carry the coordinator's AutoTune
// knobs, and the end of each session; results pass through untouched.
type tracedRunner struct {
	inner  shard.Runner
	t      *tracer
	params *atomic.Pointer[anneal.Params]
	ended  chan<- struct{} // one send per EndSession, never blocking
}

func (r tracedRunner) Configure(cfg shard.RunConfig) error {
	p := cfg.Base
	r.params.Store(&p)
	id := r.t.open(0, "worker.configure")
	err := r.inner.Configure(cfg)
	r.t.close(id, len(cfg.Entries))
	return err
}

func (r tracedRunner) Run(base *aig.AIG, job shard.JobSpec) (*shard.WorkResult, error) {
	id := r.t.open(0, "worker.job")
	wr, err := r.inner.Run(base, job)
	r.t.close(id, 1)
	return wr, err
}

func (r tracedRunner) CacheSnapshot(entry int) []eval.CacheRecord {
	id := r.t.open(0, "worker.snapshot")
	recs := r.inner.CacheSnapshot(entry)
	r.t.close(id, len(recs))
	return recs
}

func (r tracedRunner) Preseed(entry int, recs []eval.CacheRecord) {
	id := r.t.open(0, "worker.preseed")
	r.inner.Preseed(entry, recs)
	r.t.close(id, len(recs))
}

func (r tracedRunner) CacheStats() eval.CacheStats { return r.inner.CacheStats() }

func (r tracedRunner) EndSession() {
	id := r.t.open(0, "worker.end_session")
	r.inner.EndSession()
	r.t.close(id, 0)
	select {
	case r.ended <- struct{}{}:
	default:
	}
}
