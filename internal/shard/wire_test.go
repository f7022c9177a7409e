package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/eval"
)

// ---- fixed message inputs ----

func wireConfig() RunConfig {
	ml := EvalSpec{Kind: "ml", DelayModel: []byte(`{"trees":[1]}`), AreaModel: []byte(`{"trees":[2]}`), AreaPerNode: true}
	return RunConfig{
		Base: anneal.Params{
			Iterations: 77, StartTemp: 0.123, DecayRate: 0.987,
			DelayWeight: 1.5, AreaWeight: 0.25, Seed: -9,
			BatchSize: 6, BatchMin: 2, BatchMax: 16, Workers: 3, Chains: 2,
			CacheMode: anneal.CacheOn, CacheMaxEntries: 512,
			Incremental: anneal.IncrementalOff, IncrementalThreshold: 0.5,
			Parallelism: 2,
		},
		// Entries 0 and 2 share one spec, which ships once.
		Entries: []EntrySpec{
			{Base: 0, Eval: ml},
			{Base: 1, Eval: EvalSpec{Kind: "ground-truth"}},
			{Base: 1, Eval: ml},
		},
		Library: []byte("library demo"),
	}
}

func wireJob() JobSpec {
	return JobSpec{Entry: 2, Index: 12, DelayWeight: 1, AreaWeight: 0.5, Decay: 0.9, SeedOffset: -4}
}

func wireRecords() []eval.CacheRecord {
	return []eval.CacheRecord{
		{FP: 0xdeadbeef, SH: 7, M: eval.Metrics{DelayPS: 12.5, AreaUM2: 3.25}},
		{FP: 1, SH: 1 << 60, M: eval.Metrics{DelayPS: -0.0, AreaUM2: 1e300}},
	}
}

// wireResultBase is the base graph result frames are encoded against.
func wireResultBase() *aig.AIG { return testAIG(61) }

// wireResult is a two-chain result whose second chain wins.
func wireResult() *WorkResult {
	r := &anneal.Result{
		Initial: eval.Metrics{DelayPS: 100.5, AreaUM2: 42.25},
		Evals:   17, SpeculativeEvals: 3, CacheHits: 5, CacheMisses: 12,
		DeltaEvals: 4, FullEvals: 13,
		MoveTime: 1234567, EvalTime: 7654321, InitialEvalTime: 99,
		Chains: []anneal.ChainResult{
			{
				Chain: 0, Seed: 11, Best: testAIG(62), BestCost: 1.5,
				BestMetrics: eval.Metrics{DelayPS: 90, AreaUM2: 40}, Accepted: 1,
				History: []anneal.Step{
					{Iter: 1, Recipe: "b;rw", Metrics: eval.Metrics{DelayPS: 95, AreaUM2: 41}, Cost: 1.75, Accepted: true, Ands: 110, Levels: 12},
				},
			},
			{
				Chain: 1, Seed: -7, Best: testAIG(63), BestCost: 1.25,
				BestMetrics: eval.Metrics{DelayPS: 85, AreaUM2: 39.5}, Accepted: 2,
				History: []anneal.Step{
					{Iter: 1, Recipe: "rf", Metrics: eval.Metrics{DelayPS: 88, AreaUM2: 40}, Cost: 1.5, Accepted: true, Ands: 108, Levels: 11},
					{Iter: 2, Recipe: "rs;b", Metrics: eval.Metrics{DelayPS: 89, AreaUM2: 38}, Cost: 1.6, Ands: 104, Levels: 13},
				},
			},
		},
	}
	r.Best = r.Chains[1].Best
	return &WorkResult{Result: r, TrueDelayPS: 84.5, TrueAreaUM2: 39.25}
}

// wireStats has at most one record per merged cache: stats encode each
// map in Go map order, so only such maps encode deterministically.
func wireStats() *Stats {
	return &Stats{
		BaseSends: 3, BaseBytes: 1000, DeltaRecords: 12, DeltaBytes: 2048,
		JobSends: 9, Retries: 1, Requeues: 2, WorkerLosses: 1,
		Handoffs: 2, QueueDepth: 3,
		BytesSent: 4096, BytesReceived: 8192,
		CacheRecords: 30, CacheDuplicates: 4,
		SeedPushes: 5, SeedRecords: 17, SeedBytes: 512,
		PrefilterHits: 6, PrefilterRejected: 1,
		StoreLoaded: 2, StoreFlushed: 7,
		MergedCaches: []map[eval.CacheKey]eval.Metrics{
			{{FP: 1, SH: 2}: {DelayPS: 3.5, AreaUM2: -0.0}},
			{},
		},
		Workers: []WorkerStats{
			{Name: "a", Jobs: 4, PrefilterHits: 6, PrefilterRejected: 1},
			{Name: "b", Jobs: 5, Lost: true},
		},
	}
}

// wireFrame is one encoded message: its frame type and payload.
type wireFrame struct {
	name    string
	typ     byte
	payload []byte
}

// wireFrames encodes every message kind from the fixed inputs above.
func wireFrames(t testing.TB) []wireFrame {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base := must(encodeBase(3, testAIG(6)))
	submitBase := must(encodeBase(0, testAIG(13)))
	result := must(encodeResult(wireResultBase(), 12, wireResult(), wireRecords(),
		eval.CacheStats{PrefilterHits: 9, PrefilterRejected: 2}))
	return []wireFrame{
		{"config", msgConfig, encodeConfig(wireConfig())},
		{"base", msgBase, base},
		{"job", msgJob, encodeJob(wireJob())},
		{"seed", msgCacheSeed, encodeSeed(5, wireRecords())},
		{"job-error", msgJobError, encodeJobError(7, errors.New("boom"))},
		{"result", msgResult, result},
		{"hello", msgHello, encodeHello(roleWorker, "w-7")},
		{"submit", msgSubmit, encodeSubmit(encodeConfig(testConfig()), [][]byte{submitBase}, testJobs(3))},
		{"submit-done-ok", msgSubmitDone, encodeSubmitDone(nil, wireStats())},
		{"submit-done-job-failed", msgSubmitDone, encodeSubmitDone(&JobFailedError{Job: wireJob(), Attempts: 3, Msg: "boom"}, wireStats())},
		{"submit-done-error", msgSubmitDone, encodeSubmitDone(errors.New("shard: hub closed"), wireStats())},
	}
}

// TestWireGolden pins the exact bytes of every message kind: any change
// to a wire layout, however the codec is written, shows up here.
func TestWireGolden(t *testing.T) {
	golden := map[string]string{
		"config":                 "c935eddaa085cf031d577ec7b52ad80e2365e94ee91afef7103258434bdb7a00",
		"base":                   "9788d24899fc60f45a4c4c451f6a07a5071a00fbaac952a35a4c250202f261a3",
		"job":                    "5317339fcbb403d66786605af90905e5d1a1739bdb958d4f3fb7a1a5448e1f8e",
		"seed":                   "176b81c07dd98cbaf50b7131fff11a12ef675159f326e3a2ad68141e0eddefec",
		"job-error":              "5d4e662954d2c99ecd45b63c37846fc953f07d0e002c6540eb42b100bea120bb",
		"result":                 "1864b4f13a235da528c308e370709878ce917542d570e23d818b322069eb66dc",
		"hello":                  "32675ac750f689d9b78fb567683ab134d6d1aafaafa174e794e2a02ddeea1a9e",
		"submit":                 "afa248e62d558c1e33b95611ba4c697e10dba3d573d0ac5b0d0a2d1b3b91f157",
		"submit-done-ok":         "851c49f7e9ef00da377e4808acaa5854fed51a700b60dbb8e5bf44101ede2d6b",
		"submit-done-job-failed": "0e6edb4adc8c03d431b1eab44aa2708de57f2264b9150156aeeb71add9c78940",
		"submit-done-error":      "314732ce8df4cb0de00e4dca65bbdc1b4b7cf65b72989a2c526c143f1227953c",
	}
	frames := wireFrames(t)
	if len(frames) != len(golden) {
		t.Fatalf("%d frames for %d golden sums", len(frames), len(golden))
	}
	for _, f := range frames {
		sum := sha256.Sum256(f.payload)
		if got, want := hex.EncodeToString(sum[:]), golden[f.name]; got != want {
			t.Errorf("%s: sha256 %s, want %s (%d bytes)", f.name, got, want, len(f.payload))
		}
	}
}

// TestDecodeHostileCounts feeds every decoder that reads an element
// count the smallest count whose elements cannot fit in the 4 MiB of
// zeros behind it. The decoder must refuse without allocating for the
// claim. Each case first decodes its prefix followed by a valid tail,
// which proves the hostile count lands in the field the case names.
func TestDecodeHostileCounts(t *testing.T) {
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	wireBytes := func(b []byte) []byte { return cat(uv(uint64(len(b))), b) }

	// A config with one zero entry ends in: spec count 1, an empty spec
	// (kind, two models, area flag), entry count 1, entry (base 0, spec
	// 0), empty library.
	cfgFull := encodeConfig(RunConfig{Entries: []EntrySpec{{}}})
	cfgSpecs, cfgEntries := len(cfgFull)-9, len(cfgFull)-4

	// A result with every scalar zero: the header (index, true delay and
	// area, winner, initial delay and area, nine counters), one chain
	// (index, seed, best cost, delay and area, accepted), its history
	// count, its best graph (the base itself), and the tail (cache record
	// count, two prefilter counters).
	base := wireResultBase()
	rec, err := aig.EncodeDelta(base, base)
	if err != nil {
		t.Fatal(err)
	}
	resHdr := make([]byte, 1+8+8+1+8+8+9)
	chainHdr := make([]byte, 1+1+8+8+8+1)
	resTail := []byte{0, 0, 0}

	cfgPayload := encodeConfig(testConfig())
	bp, err := encodeBase(0, testAIG(13))
	if err != nil {
		t.Fatal(err)
	}
	statsHdr := make([]byte, 1+21) // submitOK, then 21 zero counters

	decResult := func(p []byte) error { _, _, _, err := decodeResult(base, p); return err }
	decConfig := func(p []byte) error { _, err := decodeConfig(p); return err }
	decSeed := func(p []byte) error { _, _, err := decodeSeed(p); return err }
	decSubmit := func(p []byte) error { _, _, _, err := decodeSubmit(p); return err }
	decDone := func(p []byte) error { _, _, err := decodeSubmitDone(p); return err }

	cases := []struct {
		name        string
		decode      func([]byte) error
		prefix      []byte // everything before the count
		valid       []byte // a valid count and the rest of the message
		minElemWire int    // fewest bytes one counted element occupies
	}{
		{"config specs", decConfig, cfgFull[:cfgSpecs], cfgFull[cfgSpecs:], 4},
		{"config entries", decConfig, cfgFull[:cfgEntries], cfgFull[cfgEntries:], 2},
		{"seed records", decSeed, []byte{0}, []byte{0}, 32},
		{"result chains", decResult, resHdr, cat([]byte{1}, chainHdr, []byte{0}, wireBytes(rec), resTail), 29},
		{"result history", decResult, cat(resHdr, []byte{1}, chainHdr), cat([]byte{0}, wireBytes(rec), resTail), 29},
		{"result cache records", decResult, cat(resHdr, []byte{1}, chainHdr, []byte{0}, wireBytes(rec)), resTail, 32},
		{"submit bases", decSubmit, wireBytes(cfgPayload), cat([]byte{1}, wireBytes(bp), []byte{0}), 4},
		{"submit jobs", decSubmit, cat(wireBytes(cfgPayload), []byte{1}, wireBytes(bp)), []byte{0}, 28},
		{"stats caches", decDone, statsHdr, []byte{0, 0}, 1},
		{"stats records", decDone, cat(statsHdr, []byte{1}), []byte{0, 0}, 32},
		{"stats workers", decDone, cat(statsHdr, []byte{0}), []byte{0}, 5},
	}
	zeros := make([]byte, 4<<20)
	for _, c := range cases {
		if err := c.decode(cat(c.prefix, c.valid)); err != nil {
			t.Fatalf("%s: valid message rejected: %v", c.name, err)
		}
		hostile := cat(c.prefix, uv(uint64(len(zeros)/c.minElemWire+1)), zeros)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := c.decode(hostile)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: count beyond the payload accepted", c.name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
			t.Errorf("%s: a %d-byte payload allocated %d bytes", c.name, len(hostile), grown)
		}
	}
}

// reencodeFrame decodes payload as a frame of type typ and re-encodes
// what it decoded. It returns the re-encoding and a canonical form of
// the decoded value; ok is false when the decoder rejected the payload
// or typ has no payload decoder. Every encoder is injective on what
// its decoder produces, so comparing re-encodings compares decoded
// values; stats are the exception (merged caches encode in map order)
// and are compared by their printed value, which sorts map keys.
func reencodeFrame(t *testing.T, base *aig.AIG, typ byte, p []byte) (out []byte, value string, ok bool) {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("frame type %d: re-encoding an accepted payload: %v", typ, err)
		}
		return b
	}
	switch typ {
	case msgConfig:
		cfg, err := decodeConfig(p)
		if err != nil {
			return nil, "", false
		}
		out = encodeConfig(cfg)
	case msgBase:
		id, g, err := decodeBase(p)
		if err != nil {
			return nil, "", false
		}
		out = must(encodeBase(id, g))
	case msgJob:
		j, err := decodeJob(p)
		if err != nil {
			return nil, "", false
		}
		out = encodeJob(j)
	case msgCacheSeed:
		entry, recs, err := decodeSeed(p)
		if err != nil {
			return nil, "", false
		}
		out = encodeSeed(entry, recs)
	case msgJobError:
		idx, msg, err := decodeJobError(p)
		if err != nil {
			return nil, "", false
		}
		out = encodeJobError(idx, errors.New(msg))
	case msgResult:
		jr, recs, rw, err := decodeResult(base, p)
		if err != nil {
			return nil, "", false
		}
		wr := &WorkResult{Result: jr.Result, TrueDelayPS: jr.TrueDelayPS, TrueAreaUM2: jr.TrueAreaUM2}
		cs := eval.CacheStats{PrefilterHits: rw.prefilterHits, PrefilterRejected: rw.prefilterRejected}
		out = must(encodeResult(base, jr.Index, wr, recs, cs))
	case msgHello:
		role, name, err := decodeHello(p)
		if err != nil {
			return nil, "", false
		}
		out = encodeHello(role, name)
	case msgSubmit:
		bases, cfg, jobs, err := decodeSubmit(p)
		if err != nil {
			return nil, "", false
		}
		bps := make([][]byte, len(bases))
		for i, g := range bases {
			bps[i] = must(encodeBase(uint32(i), g))
		}
		out = encodeSubmit(encodeConfig(cfg), bps, jobs)
	case msgSubmitDone:
		st, runErr, err := decodeSubmitDone(p)
		if err != nil {
			return nil, "", false
		}
		return encodeSubmitDone(runErr, st), fmt.Sprintf("%#v %#v", st, runErr), true
	default:
		return nil, "", false
	}
	return out, string(out), true
}

// FuzzShardFrames runs every frame decoder on arbitrary bytes: the
// first byte is the frame type, the rest its payload. No input may
// panic, and every accepted payload must be a fixpoint:
// decode(encode(decode(x))) == decode(x).
func FuzzShardFrames(f *testing.F) {
	for _, fr := range wireFrames(f) {
		f.Add(append([]byte{fr.typ}, fr.payload...))
	}
	base := wireResultBase()
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) == 0 {
			return
		}
		typ := frame[0]
		out, value, ok := reencodeFrame(t, base, typ, frame[1:])
		if !ok {
			return
		}
		_, again, ok := reencodeFrame(t, base, typ, out)
		if !ok {
			t.Fatalf("frame type %d: re-encoding of an accepted payload rejected", typ)
		}
		if again != value {
			t.Fatalf("frame type %d: decode(encode(decode(x))) differs from decode(x)", typ)
		}
	})
}
