package flows

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aigtimer/internal/cell"
)

// buildSweepd compiles cmd/sweepd once per test binary.
var buildSweepd = sync.OnceValues(func() (string, error) {
	dir, err := filepath.Abs("../..")
	if err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp("", "sweepd-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(tmp, "sweepd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sweepd")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &buildError{out: string(out), err: err}
	}
	return bin, nil
})

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + ": " + e.out }

// startSweepd launches a sweepd process on an ephemeral port and
// returns its address. The process is killed at test cleanup.
func startSweepd(t *testing.T, extraArgs ...string) string {
	t.Helper()
	bin, err := buildSweepd()
	if err != nil {
		t.Fatalf("building sweepd: %v", err)
	}
	args := append([]string{"-listen", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("reading sweepd banner: %v", err)
	}
	const banner = "sweepd listening on "
	if !strings.HasPrefix(line, banner) {
		t.Fatalf("unexpected sweepd banner %q", line)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, banner))
}

// TestSweepShardedRealProcesses is the acceptance test of the
// distributed driver: a sweep sharded over two real sweepd worker
// processes (TCP) must produce SweepPoints byte-identical to the
// single-machine flows.Sweep, with the base graph transferred exactly
// once per worker and all result graphs arriving as delta records —
// both asserted through the coordinator's transport byte accounting.
func TestSweepShardedRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	addrs := []string{startSweepd(t), startSweepd(t)}

	g := testAIG(31)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(11)
	ev := NewGroundTruth(lib)

	local, err := Sweep(g, ev, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sharded, st, err := SweepSharded(g, ev, lib, cfg, ShardOptions{Endpoints: addrs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(CanonicalizeSweep(local), CanonicalizeSweep(sharded)) {
		for i := range local {
			if !bytes.Equal(local[i].AppendCanonical(nil), sharded[i].AppendCanonical(nil)) {
				t.Fatalf("sweep point %d differs between local and 2-process execution", i)
			}
		}
		t.Fatal("canonical sweeps differ")
	}
	// Transport accounting: one base per worker process, delta records
	// for every returned graph, nothing else carrying graphs.
	if st.BaseSends != 2 {
		t.Fatalf("base sends = %d, want 2 (one per worker process)", st.BaseSends)
	}
	if st.BaseBytes <= 0 {
		t.Fatal("base bytes not accounted")
	}
	if st.DeltaRecords != len(local) {
		t.Fatalf("delta records = %d, want %d (single chain per grid point)", st.DeltaRecords, len(local))
	}
	if st.DeltaBytes <= 0 {
		t.Fatal("delta bytes not accounted")
	}
	if st.WorkerLosses != 0 || st.Requeues != 0 || st.Retries != 0 {
		t.Fatalf("clean run reported failures: %+v", st)
	}
	if st.MergedStructures() == 0 || st.CacheDuplicates == 0 {
		t.Fatalf("expected a merged cache with cross-process duplicates (both workers score the root): records=%d merged=%d dup=%d",
			st.CacheRecords, st.MergedStructures(), st.CacheDuplicates)
	}
}

// TestSweepShardedProcessCrash drives the failure path over real
// processes: both workers crash (os.Exit) with a job in flight after
// completing one job each, so the coordinator must detect the losses,
// requeue, and — with no fleet left — report the loss instead of
// hanging or fabricating results.
func TestSweepShardedProcessCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	addrs := []string{
		startSweepd(t, "-max-jobs", "1"),
		startSweepd(t, "-max-jobs", "1"),
	}
	g := testAIG(32)
	cfg := shardTestSweepConfig(13)
	if len(cfg.Grid()) != 4 {
		t.Fatalf("test expects a 4-point grid, got %d", len(cfg.Grid()))
	}
	_, st, err := SweepSharded(g, Proxy{}, cell.Builtin(), cfg, ShardOptions{Endpoints: addrs, Logf: t.Logf})
	if err == nil {
		t.Fatal("sweep succeeded although every worker crashed mid-job")
	}
	if st == nil {
		t.Fatal("no stats from failed run")
	}
	if st.WorkerLosses != 2 {
		t.Fatalf("worker losses = %d, want 2", st.WorkerLosses)
	}
	// Each worker completed exactly its first job before crashing on the
	// second dispatch, which was requeued.
	done := 0
	for _, w := range st.Workers {
		done += w.Jobs
		if !w.Lost {
			t.Fatalf("crashed worker not marked lost: %+v", st.Workers)
		}
	}
	if done != 2 || st.Requeues != 2 {
		t.Fatalf("expected 2 completed jobs and 2 requeues, got %d and %d", done, st.Requeues)
	}
}

// TestSweepSuiteShardedRealProcesses is the acceptance test of the
// session protocol over real workers: a two-design, three-entry suite
// (one design swept under two evaluators — the sec2b shape) through one
// session per worker process, byte-identical per entry to local
// execution, with each distinct base transferred exactly once per
// worker and preseeding active.
func TestSweepSuiteShardedRealProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	addrs := []string{startSweepd(t), startSweepd(t)}

	gA, gB := testAIG(33), testAIG(34)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(41)
	entries := []SuiteEntry{
		{Name: "A-baseline", G: gA, Eval: Proxy{}},
		{Name: "A-gt", G: gA, Eval: NewGroundTruth(lib)},
		{Name: "B-gt", G: gB, Eval: NewGroundTruth(lib)},
	}
	want, err := SweepSuite(entries, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := SweepSuiteSharded(entries, lib, cfg, ShardOptions{
		Endpoints: addrs, Preseed: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range entries {
		if !bytes.Equal(CanonicalizeSweep(want[e].Points), CanonicalizeSweep(got[e].Points)) {
			t.Fatalf("entry %q differs between local suite and 2-process session", entries[e].Name)
		}
	}
	if st.BaseSends != 4 {
		t.Fatalf("base sends = %d, want 4 (2 distinct bases x 2 worker processes)", st.BaseSends)
	}
	if st.DeltaRecords != len(cfg.Grid())*len(entries) {
		t.Fatalf("delta records = %d, want %d", st.DeltaRecords, len(cfg.Grid())*len(entries))
	}
	if st.WorkerLosses != 0 || st.Requeues != 0 || st.Retries != 0 {
		t.Fatalf("clean run reported failures: %+v", st)
	}
	t.Logf("suite transfers: base %d B, delta %d B, seeds %d records / %d B; duplicates %d, prefilter hits %d (rejected %d)",
		st.BaseBytes, st.DeltaBytes, st.SeedRecords, st.SeedBytes, st.CacheDuplicates, st.PrefilterHits, st.PrefilterRejected)
}

// TestSweepSuiteShardedProcessCrashRequeues kills a real worker process
// mid-suite (-max-jobs crash with a job in flight) and asserts the
// session requeues cleanly: the surviving worker finishes the suite and
// every entry stays byte-identical to the local reference.
func TestSweepSuiteShardedProcessCrashRequeues(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	addrs := []string{
		startSweepd(t, "-max-jobs", "1"),
		startSweepd(t),
	}
	gA, gB := testAIG(35), testAIG(36)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(43)
	// Spend the crashing worker's one-job budget in a one-point session
	// of its own (sweepd counts jobs across sessions), so it crashes on
	// the first job the suite dispatches to it. A budget left for the
	// suite could go unused: the healthy worker may drain the grid first.
	one := cfg
	one.AreaWeights, one.DecayRates = cfg.AreaWeights[:1], cfg.DecayRates[:1]
	if _, _, err := SweepSharded(gA, Proxy{}, lib, one, ShardOptions{Endpoints: addrs[:1]}); err != nil {
		t.Fatal(err)
	}
	entries := []SuiteEntry{
		{Name: "A", G: gA, Eval: Proxy{}},
		{Name: "B", G: gB, Eval: Proxy{}},
	}
	want, err := SweepSuite(entries, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := SweepSuiteSharded(entries, lib, cfg, ShardOptions{
		Endpoints: addrs, Preseed: true, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range entries {
		if !bytes.Equal(CanonicalizeSweep(want[e].Points), CanonicalizeSweep(got[e].Points)) {
			t.Fatalf("entry %q differs after mid-suite process crash", entries[e].Name)
		}
	}
	if st.WorkerLosses != 1 {
		t.Fatalf("worker losses = %d, want 1", st.WorkerLosses)
	}
	if st.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1 (the in-flight job at the crash)", st.Requeues)
	}
	total := len(cfg.Grid()) * len(entries)
	done := 0
	for _, w := range st.Workers {
		done += w.Jobs
	}
	if done != total {
		t.Fatalf("completed %d jobs, want %d", done, total)
	}
}
