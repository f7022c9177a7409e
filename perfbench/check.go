package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"aigtimer/internal/aig"
	"aigtimer/internal/flows"
)

// exhaustiveChunkPIs is the widest input space aig.ExhaustivePatterns
// covers in one simulation; wider designs are checked in 2^(n-16)
// chunks with the extra inputs held constant per chunk.
const exhaustiveChunkPIs = 16

// maxCheckPIs bounds the exhaustive check (the suite tops out at 18).
const maxCheckPIs = 20

// equivChecker proves graphs functionally equivalent to one reference
// design by exhaustive simulation. The reference's output words are
// computed once per chunk and reused for every candidate.
type equivChecker struct {
	ref    *aig.AIG
	words  int
	chunks [][][]uint64 // per chunk: PI rows
	refPOs [][][]uint64 // per chunk, per PO: output words
}

func newEquivChecker(ref *aig.AIG) (*equivChecker, error) {
	n := ref.NumPIs()
	if n > maxCheckPIs {
		return nil, fmt.Errorf("equivalence: %d PIs exceeds the exhaustive bound %d", n, maxCheckPIs)
	}
	low := n
	if low > exhaustiveChunkPIs {
		low = exhaustiveChunkPIs
	}
	base := aig.ExhaustivePatterns(low)
	words := aig.ExhaustiveWords(low)
	ones := make([]uint64, words)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	zeros := make([]uint64, words)
	c := &equivChecker{ref: ref, words: words}
	for chunk := 0; chunk < 1<<(n-low); chunk++ {
		rows := make([][]uint64, n)
		copy(rows, base)
		for v := low; v < n; v++ {
			if chunk>>(v-low)&1 == 1 {
				rows[v] = ones
			} else {
				rows[v] = zeros
			}
		}
		c.chunks = append(c.chunks, rows)
		c.refPOs = append(c.refPOs, outputs(ref, rows, words))
	}
	return c, nil
}

// outputs simulates g and returns a copy of each PO's words.
func outputs(g *aig.AIG, rows [][]uint64, words int) [][]uint64 {
	res := aig.NewSimulator(g).SimulateWords(rows, words)
	out := make([][]uint64, g.NumPOs())
	for i, po := range g.POs() {
		v := res.Values[po.Node()]
		w := make([]uint64, words)
		for j := range w {
			w[j] = v[j]
			if po.IsCompl() {
				w[j] = ^w[j]
			}
		}
		out[i] = w
	}
	return out
}

// check reports nil when g computes the reference's function on every
// input assignment.
func (c *equivChecker) check(g *aig.AIG) error {
	if g == nil {
		return fmt.Errorf("equivalence: no graph")
	}
	if g.NumPIs() != c.ref.NumPIs() || g.NumPOs() != c.ref.NumPOs() {
		return fmt.Errorf("equivalence: interface %d/%d, want %d/%d", g.NumPIs(), g.NumPOs(), c.ref.NumPIs(), c.ref.NumPOs())
	}
	// Patterns beyond 2^n in a short word are padding; with n >= 6 every
	// bit is a real minterm, and smaller designs mask the tail.
	valid := uint64(math.MaxUint64)
	if n := c.ref.NumPIs(); n < 6 {
		valid = 1<<(1<<n) - 1
	}
	sim := aig.NewSimulator(g)
	for ci, rows := range c.chunks {
		res := sim.SimulateWords(rows, c.words)
		for i, po := range g.POs() {
			v := res.Values[po.Node()]
			want := c.refPOs[ci][i]
			for j := range want {
				got := v[j]
				if po.IsCompl() {
					got = ^got
				}
				if (got^want[j])&valid != 0 {
					return fmt.Errorf("equivalence: output %d differs in chunk %d word %d", i, ci, j)
				}
			}
		}
	}
	return nil
}

// rebuild copies g, complementing the first fanin of the AND node at
// position flipAnd (counted from the first AND) and the primary output
// flipPO; a negative position leaves that part unchanged.
func rebuild(g *aig.AIG, flipAnd, flipPO int) *aig.AIG {
	b := aig.NewBuilder(g.NumPIs())
	lits := make([]aig.Lit, g.NumNodes())
	for i := 0; i < g.NumPIs(); i++ {
		lits[i+1] = b.PI(i)
	}
	lit := func(l aig.Lit) aig.Lit { return lits[l.Node()].NotIf(l.IsCompl()) }
	k := 0
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		lits[n] = b.And(lit(f0).NotIf(k == flipAnd), lit(f1))
		k++
	})
	for i, po := range g.POs() {
		b.AddPO(lit(po).NotIf(i == flipPO))
	}
	return b.Build()
}

// selfTest proves the checker still rejects a wrong graph: the input
// with its last output inverted.
func (c *equivChecker) selfTest() error {
	if c.check(rebuild(c.ref, -1, c.ref.NumPOs()-1)) == nil {
		return fmt.Errorf("equivalence checker accepted a corrupted copy of its reference")
	}
	return nil
}

// digest is the SHA-256 of the canonical form of one or more sweeps
// (flows.CanonicalizeSweep), hex-encoded.
func digest(sweeps ...[]flows.SweepPoint) string {
	h := sha256.New()
	for _, pts := range sweeps {
		h.Write(flows.CanonicalizeSweep(pts))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference is the expected outcome of one optimization or submission.
type reference struct {
	BestCost   float64 `json:"best_cost"`
	QoRDelayPS float64 `json:"qor_delay_ps"`
	QoRAreaUM2 float64 `json:"qor_area_um2"`
	Digest     string  `json:"sha256"`
}

// references maps workload -> seed (decimal) -> expected outcome.
type references map[string]map[string]reference

const referencesFile = "perfbench/references.json"

func loadReferences() (references, error) {
	b, err := os.ReadFile(referencesFile)
	if err != nil {
		return nil, err
	}
	var r references
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", referencesFile, err)
	}
	return r, nil
}

// compare checks got against the recorded reference of (workload,
// seed). Seeds without a record are reported as unchecked, not failed;
// with update set, got is recorded instead.
func (r references) compare(workload string, seed int64, got reference, update bool) (checked bool, err error) {
	key := fmt.Sprint(seed)
	want, ok := r[workload][key]
	if update {
		if r[workload] == nil {
			r[workload] = map[string]reference{}
		}
		if ok && want != got {
			return true, fmt.Errorf("reference %s seed %d changed while recording: %+v -> %+v", workload, seed, want, got)
		}
		r[workload][key] = got
		return true, nil
	}
	if !ok {
		return false, nil
	}
	if want != got {
		return true, fmt.Errorf("reference %s seed %d: got %+v, want %+v", workload, seed, got, want)
	}
	return true, nil
}

func (r references) save() error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencesFile, append(b, '\n'), 0o644)
}

// envStamp describes the machine and the code a result came from.
type envStamp struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

func stamp() envStamp {
	e := envStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	e.SourceHash = sourceHash()
	return e
}

// sourceHash identifies the code under test when no VCS revision is
// available: SHA-256 over go.mod and every .go file of the module and
// the benchmark, in path order.
func sourceHash() string {
	var files []string
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
