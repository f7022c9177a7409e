package shard

import (
	"io"
	"net"
	"sync"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
)

// TestSessionMultiEntry drives a v2 session: two distinct base graphs,
// three entries (one base serves two entries, as when one design is
// swept under two evaluators), jobs interleaved across entries over two
// workers. Every result must match a single local runner executing the
// same jobs, and each base must have crossed the wire exactly once per
// worker.
func TestSessionMultiEntry(t *testing.T) {
	bases := []*aig.AIG{testAIG(41), testAIG(42)}
	cfg := RunConfig{
		Base: anneal.Params{
			Iterations: 8, StartTemp: 0.05, DecayRate: 0.95, Seed: 5, BatchSize: 4,
		},
		Entries: []EntrySpec{
			{Base: 0, Eval: EvalSpec{Kind: "baseline"}},
			{Base: 1, Eval: EvalSpec{Kind: "baseline"}},
			{Base: 0, Eval: EvalSpec{Kind: "baseline"}},
		},
	}
	var jobs []JobSpec
	for e := 0; e < len(cfg.Entries); e++ {
		for k := 0; k < 2; k++ {
			jobs = append(jobs, JobSpec{
				Entry: e, Index: len(jobs),
				DelayWeight: 1, AreaWeight: 0.3 * float64(k), Decay: 0.95,
				SeedOffset: int64(k),
			})
		}
	}

	ref := newFakeRunner()
	if err := ref.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	want := make([]*WorkResult, len(jobs))
	for i, j := range jobs {
		wr, err := ref.Run(bases[cfg.Entries[j.Entry].Base], j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wr
	}

	runners := []*fakeRunner{newFakeRunner(), newFakeRunner()}
	conns, wait := startWorkers(runners)
	got, st, err := Run(bases, cfg, jobs, Options{Conns: conns, Preseed: true})
	if err != nil {
		t.Fatal(err)
	}
	wait()

	for i := range jobs {
		if got[i].Index != jobs[i].Index || got[i].Entry != jobs[i].Entry {
			t.Fatalf("result %d carries index %d entry %d", i, got[i].Index, got[i].Entry)
		}
		if err := sameResult(got[i].Result, want[i].Result); err != nil {
			t.Fatalf("job %d (entry %d): %v", i, jobs[i].Entry, err)
		}
	}
	if want := len(bases) * len(conns); st.BaseSends != want {
		t.Fatalf("base sends = %d, want %d (each base once per worker)", st.BaseSends, want)
	}
	if len(st.MergedCaches) != len(cfg.Entries) {
		t.Fatalf("merged caches = %d, want one per entry", len(st.MergedCaches))
	}
	// Entries 0 and 2 sweep the same base with the same evaluator but
	// must still merge separately (no cross-entry record flow).
	if len(st.MergedCaches[0]) == 0 || len(st.MergedCaches[1]) == 0 || len(st.MergedCaches[2]) == 0 {
		t.Fatalf("expected records in every entry's merged cache: %d/%d/%d",
			len(st.MergedCaches[0]), len(st.MergedCaches[1]), len(st.MergedCaches[2]))
	}
}

// hookConn invokes a callback with the 1-based index of every Write,
// letting a test block specific coordinator flushes to force a
// deterministic cross-worker schedule.
type hookConn struct {
	io.ReadWriteCloser
	mu          sync.Mutex
	writes      int
	beforeWrite func(n int)
}

func (c *hookConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	c.mu.Unlock()
	if c.beforeWrite != nil {
		c.beforeWrite(n)
	}
	return c.ReadWriteCloser.Write(p)
}

// TestPreseedRecoversDuplicates is the preseed acceptance test at the
// protocol level, with a forced schedule so the duplicate counts are
// exact rather than racy: four identical jobs (same weights and seed
// offset, distinct indices — identical trajectories, therefore
// identical evaluated structures), two workers. Worker 0 completes two
// jobs and is then stalled with the third in flight; worker 1 is
// released only after worker 0's results are merged, so its single job
// is dispatched with the full merged cache available. With preseeding
// on, worker 1 re-evaluates nothing (every structure arrives as a
// pushed record), exports nothing, and the session sees zero
// cross-worker duplicates; with preseeding off, the same schedule makes
// every one of worker 1's records a duplicate. Results are
// byte-identical either way.
func TestPreseedRecoversDuplicates(t *testing.T) {
	base := testAIG(7)
	cfg := RunConfig{
		Base: anneal.Params{
			Iterations: 8, StartTemp: 0.05, DecayRate: 0.95, Seed: 5, BatchSize: 4,
		},
		Entries: []EntrySpec{{Base: 0, Eval: EvalSpec{Kind: "baseline"}}},
	}
	jobs := make([]JobSpec, 4)
	for i := range jobs {
		jobs[i] = JobSpec{Entry: 0, Index: i, DelayWeight: 1, AreaWeight: 0.5, Decay: 0.95}
	}
	want := reference(t, base, cfg, jobs)

	run := func(preseed bool) *Stats {
		var mu sync.Mutex
		cond := sync.NewCond(&mu)
		done := 0
		waitDone := func(k int) {
			mu.Lock()
			for done < k {
				cond.Wait()
			}
			mu.Unlock()
		}
		onDone := func(int, string) {
			mu.Lock()
			done++
			mu.Unlock()
			cond.Broadcast()
		}
		runners := []*fakeRunner{newFakeRunner(), newFakeRunner()}
		conns, wait := startWorkers(runners)
		// Worker 0 flushes: #1 config+base, #2 job0, #3 job1, #4 job2 —
		// held until worker 1's job is merged. Worker 1 flush #1
		// (config+base) is held until worker 0's first two results are
		// merged, so its dispatch sees the full merged cache.
		conns[0] = &hookConn{ReadWriteCloser: conns[0], beforeWrite: func(n int) {
			if n == 4 {
				waitDone(3)
			}
		}}
		conns[1] = &hookConn{ReadWriteCloser: conns[1], beforeWrite: func(n int) {
			if n == 1 {
				waitDone(2)
			}
		}}
		got, st, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns, Preseed: preseed, OnJobDone: onDone})
		if err != nil {
			t.Fatal(err)
		}
		wait()
		for i := range jobs {
			if err := sameResult(got[i].Result, want[i].Result); err != nil {
				t.Fatalf("preseed=%v job %d: %v", preseed, i, err)
			}
		}
		if st.Workers[0].Jobs != 3 || st.Workers[1].Jobs != 1 {
			t.Fatalf("schedule not forced: %+v", st.Workers)
		}
		return st
	}

	off := run(false)
	on := run(true)
	if off.CacheDuplicates == 0 {
		t.Fatal("forced schedule produced no duplicates with preseeding off")
	}
	if off.PrefilterHits != 0 || off.SeedRecords != 0 {
		t.Fatalf("preseed-off run pushed seeds: %+v", off)
	}
	if on.CacheDuplicates != 0 {
		t.Fatalf("preseeding left %d duplicates (worker 1 re-evaluated pushed structures)", on.CacheDuplicates)
	}
	if on.PrefilterHits == 0 || on.SeedRecords == 0 || on.SeedPushes == 0 {
		t.Fatalf("preseed-on run shows no prefilter activity: %+v", on)
	}
	if on.PrefilterRejected != 0 {
		t.Fatalf("unexpected witnessed collisions: %d", on.PrefilterRejected)
	}
	if on.CacheDuplicates >= off.CacheDuplicates {
		t.Fatalf("preseeding did not lower duplicates: on=%d off=%d", on.CacheDuplicates, off.CacheDuplicates)
	}
}

// ---- partition withdrawal (sched + session) ----

// TestSchedWithdrawalPrunesExclusions is the focused unit test over
// the withdrawal path's exclusion-set pruning: a worker that withdraws
// for rebalancing must scrub its id from every queued task's exclusion
// set — exactly like a death — so a recycled id does not inherit its
// predecessor's exclusions, and a completed schedule must end the
// session (nextDone) before any withdrawal fires.
func TestSchedWithdrawalPrunesExclusions(t *testing.T) {
	s := newSched(testJobs(3))
	s.addWorker(0)
	s.addWorker(1)

	t0, out := s.next(0)
	if out != nextJob || t0 == nil {
		t.Fatal("worker 0 got no task")
	}
	s.requeue(t0, 0) // worker 0 failed it: queued with worker 0 excluded
	if !t0.exclude[0] {
		t.Fatal("requeue did not record the exclusion")
	}

	// Shrinking the target below the live count turns worker 0's next
	// pull into a withdrawal, not a job.
	s.setTarget(1)
	if tk, out := s.next(0); out != nextWithdrawn || tk != nil {
		t.Fatalf("surplus worker pulled (%v, %d), want a withdrawal", tk, out)
	}
	if t0.exclude[0] {
		t.Fatal("withdrawal left the worker's exclusion on a queued task")
	}

	// The hub re-admits donated workers as fresh sessionWorkers, but the
	// sched must tolerate a recycled id regardless: readmitted worker 0
	// may take the very task its predecessor failed.
	s.setTarget(2)
	s.addWorker(0)
	if got, out := s.next(0); out != nextJob || got == nil {
		t.Fatalf("readmitted worker got (%v, %d), want a job", got, out)
	}

	// An exhausted schedule ends the session even under a zero target:
	// nextDone outranks nextWithdrawn.
	for i := 0; i < 3; i++ {
		s.complete()
	}
	s.setTarget(0)
	if _, out := s.next(1); out != nextDone {
		t.Fatalf("completed schedule returned outcome %d, want session end", out)
	}
}

// TestSessionEmptyPartitionWaits covers the empty-partition wait path
// the same way the empty-fleet wait is covered: an elastic session
// whose partition target drops to zero releases its worker (which
// withdraws at a job boundary, never mid-job) and then waits with jobs
// outstanding instead of failing; raising the target and re-admitting
// the same connection replays the full warm-start preamble and the
// session completes byte-identically, with the handoff on the books.
func TestSessionEmptyPartitionWaits(t *testing.T) {
	base := testAIG(45)
	cfg := testConfig()
	jobs := testJobs(4)
	want := reference(t, base, cfg, jobs)

	released := make(chan *wireWorker, 2)
	s, err := newSession([]*aig.AIG{base}, cfg, jobs, sessionOptions{
		elastic: true,
		onRelease: func(w *wireWorker, healthy bool) {
			if healthy {
				released <- w
			}
		},
		logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	r := newFakeRunner()
	hubSide, workerSide := net.Pipe()
	go Serve(workerSide, r)
	w := newWireWorker("w0", hubSide, 0)
	if !s.attach(w) {
		t.Fatal("attach failed")
	}

	// Empty the partition: the worker must come back through the
	// release path with the session still unresolved.
	s.sched.setTarget(0)
	ww := <-released
	if ww != w {
		t.Fatal("released a worker that was never attached")
	}
	select {
	case <-s.done:
		t.Fatal("session resolved with an empty partition and jobs outstanding")
	default:
	}

	// Rebalance back: target first, then re-admission — the hub's
	// scheduleLocked does the same — so the returning worker is not
	// immediately withdrawn again.
	s.sched.setTarget(1)
	if !s.attach(w) {
		t.Fatal("re-admission failed")
	}
	results, st, err := s.wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if err := sameResult(results[i].Result, want[i].Result); err != nil {
			t.Fatalf("job %d after empty-partition wait: %v", i, err)
		}
	}
	if st.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", st.Handoffs)
	}
	// Two admissions of the same connection: the preamble went out both
	// times (the worker dropped its per-session state at msgEndSession).
	if st.BaseSends != 2 || len(st.Workers) != 2 {
		t.Fatalf("base sends %d / worker records %d, want 2/2 (full warm-start replay on re-admission)", st.BaseSends, len(st.Workers))
	}
	w.shutdown()
}

// TestSessionAttachRefusedAfterLastJob covers the window between the
// last job's completion and the session's finish. A worker woken by
// that completion is released to the hub, which reschedules while the
// session is still active; an attach that succeeded there would re-send
// the config and every base to a worker that then gets no job and is
// released again, lap after lap until finish runs.
func TestSessionAttachRefusedAfterLastJob(t *testing.T) {
	s, err := newSession([]*aig.AIG{testAIG(46)}, testConfig(), testJobs(1), sessionOptions{elastic: true, logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if left := s.sched.complete(); left != 0 {
		t.Fatalf("%d jobs left after completing the only one", left)
	}
	hubSide, workerSide := net.Pipe()
	go io.Copy(io.Discard, workerSide)
	w := newWireWorker("late", hubSide, 0)
	if s.attach(w) {
		t.Error("worker attached to a session with no job left")
	}
	s.finish(nil)
	_, st, err := s.wait()
	w.shutdown()
	workerSide.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseSends != 0 || len(st.Workers) != 0 {
		t.Fatalf("base sends %d / worker records %d after the last job, want 0/0", st.BaseSends, len(st.Workers))
	}
}
