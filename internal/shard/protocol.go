package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/eval"
)

// protocolVersion gates coordinator/worker compatibility; a worker
// refuses a session whose config message carries a different version.
// Version 2 is the session protocol: a config names several (base,
// evaluator) entries, every base ships once per worker, jobs reference
// entries, and the coordinator may push merged cache records to workers
// mid-sweep (msgCacheSeed). Version 3 is the hub protocol: peers open
// with a hello naming their role, clients submit whole sessions
// (msgSubmit) and receive streamed results, and a worker connection
// outlives a session (msgEndSession drops per-session state without
// closing the transport). Version 4 extends the submit-done stats with
// the partition scheduler's accounting (Handoffs, QueueDepth). Version
// 5 adds the intra-evaluation parallelism knob to the config message,
// pinned coordinator-side so every worker runs the same lane count.
const protocolVersion = 5

// maxPayload bounds one message; anything larger indicates a framing
// desync or a hostile peer, not a real sweep artifact.
const maxPayload = 1 << 30

// readChunk is the most readMsg allocates ahead of the payload bytes
// that have actually arrived.
const readChunk = 1 << 20

// Message types. The coordinator drives the session (config, bases,
// seeds, jobs, bye); the worker only ever answers a job.
const (
	msgConfig    byte = 1 // coordinator -> worker: version + RunConfig
	msgBase      byte = 2 // coordinator -> worker: a base graph, shipped once
	msgJob       byte = 3 // coordinator -> worker: one grid point
	msgBye       byte = 4 // coordinator -> worker: drain and close
	msgResult    byte = 5 // worker -> coordinator: completed grid point
	msgJobError  byte = 6 // worker -> coordinator: grid point failed
	msgCacheSeed byte = 7 // coordinator -> worker: merged cache records to preseed

	// Hub extensions (protocol v3).
	msgHello        byte = 8  // peer -> hub: protocol version, role, display name
	msgSubmit       byte = 9  // client -> hub: one full session (config + bases + jobs)
	msgSubmitResult byte = 10 // hub -> client: one job's result payload, forwarded verbatim
	msgSubmitDone   byte = 11 // hub -> client: submission outcome + session stats
	msgEndSession   byte = 12 // hub -> worker: drop per-session state, stay connected
)

// Hello roles.
const (
	roleWorker byte = 1
	roleClient byte = 2
)

// RunConfig is the session-wide configuration a coordinator installs on
// every worker before sending jobs: the annealing base parameters every
// grid point derives from, the session's entries (each a base graph
// paired with the evaluator the workers must reconstruct for it), and
// the cell library (nil = the built-in library).
type RunConfig struct {
	Base    anneal.Params
	Entries []EntrySpec
	Library []byte // cell.WriteLibrary bytes; nil selects cell.Builtin
}

// EntrySpec is one sweep of a session: the index of its base graph in
// the session's base list (several entries may share one base — e.g.
// the same design swept under different guiding evaluators) and the
// evaluator of that sweep. Caches are scoped per entry: metrics from
// different evaluators are not interchangeable, so cache records never
// cross entry boundaries.
type EntrySpec struct {
	Base int
	Eval EvalSpec
}

// EvalSpec names the guiding evaluator of a sweep in a form that can
// cross a process boundary: a kind plus the serialized models it needs.
// The shard layer only transports it — interpretation (constructing the
// evaluator) belongs to the Runner implementation, which is what keeps
// this package free of a dependency on the flows it serves.
type EvalSpec struct {
	Kind        string // "baseline" | "ground-truth" | "ml"
	DelayModel  []byte // gbdt JSON (ml only)
	AreaModel   []byte // gbdt JSON (ml only, optional)
	AreaPerNode bool   // ml area-model convention
}

// Hash returns a stable 64-bit identity of the spec — FNV-1a over its
// kind, model blobs, and area convention, with length framing so
// distinct field splits cannot collide. Paired with a base graph's
// aig.Hash it forms eval.StoreKey, the persistent store's notion of
// "same sweep": two sessions share stored records exactly when they
// sweep the same structure under an evaluator that would reconstruct
// identically.
func (s EvalSpec) Hash() uint64 {
	h := fnv.New64a()
	var lenBuf [binary.MaxVarintLen64]byte
	field := func(b []byte) {
		n := binary.PutUvarint(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:n])
		h.Write(b)
	}
	field([]byte(s.Kind))
	field(s.DelayModel)
	field(s.AreaModel)
	if s.AreaPerNode {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// JobSpec is one grid point: the session entry it belongs to, a
// session-unique result index, and the hyperparameters and seed offset
// of that run (mirroring flows.GridPoint without importing it).
type JobSpec struct {
	Entry                          int // index into RunConfig.Entries
	Index                          int // session-unique result slot
	DelayWeight, AreaWeight, Decay float64
	SeedOffset                     int64
}

// WorkResult is what a Runner produces for one job: the annealing
// result plus the ground-truth re-evaluation of its winner.
type WorkResult struct {
	Result                   *anneal.Result
	TrueDelayPS, TrueAreaUM2 float64
}

// JobResult pairs a completed job with its outcome on the coordinator
// side.
type JobResult struct {
	Entry                    int // session entry the job belonged to
	Index                    int
	TrueDelayPS, TrueAreaUM2 float64
	Result                   *anneal.Result
}

// ---- framing ----

func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readMsg(r *bufio.Reader) (byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	// Past the type byte the frame has begun: a stream ending before its
	// last byte cuts the frame off, which is not an orderly close.
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, noEOF(err)
	}
	if n > maxPayload {
		return 0, nil, fmt.Errorf("shard: message of %d bytes exceeds limit", n)
	}
	// The declared length is only the peer's claim: grow the buffer as
	// bytes arrive, one chunk at a time, so a header announcing a huge
	// frame followed by a hang-up costs one chunk, not the claim. A frame
	// of at most one chunk is still read into a single allocation.
	payload := make([]byte, 0, min(n, readChunk))
	for uint64(len(payload)) < n {
		start := len(payload)
		k := int(min(n-uint64(start), readChunk))
		payload = slices.Grow(payload, k)[:start+k]
		if _, err := io.ReadFull(r, payload[start:]); err != nil {
			return 0, nil, noEOF(err)
		}
	}
	return typ, payload, nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---- wire primitives ----

// wire walks one message's fields in wire order. Encoding appends each
// field to buf; decoding reads it, bounds-checked, from data. Every
// message lists its layout once, as one walk over a *wire, so its
// encoder and decoder cannot drift apart; only steps that really go one
// way (a dedup table, a winner pick, aggregation, range checks) branch
// on dec. The first error sticks, so a walk runs to its end and is
// checked once.
type wire struct {
	dec  bool
	buf  []byte // encoding: the payload so far
	data []byte // decoding: the bytes not yet read
	err  error
}

// encode runs walk in encoding mode.
func encode(walk func(*wire)) ([]byte, error) {
	w := &wire{}
	walk(w)
	return w.buf, w.err
}

// decode runs walk over payload in decoding mode; bytes left over after
// the walk make the payload corrupt.
func decode(payload []byte, what string, walk func(*wire)) error {
	w := &wire{dec: true, data: payload}
	walk(w)
	if w.err == nil && len(w.data) != 0 {
		return fmt.Errorf("shard: %d trailing %s bytes", len(w.data), what)
	}
	return w.err
}

// fail records err unless an earlier error already stuck.
func (w *wire) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *wire) truncated(what string) { w.fail(fmt.Errorf("shard: truncated or corrupt %s", what)) }

// Go methods cannot take type parameters, so the two integer primitives
// are functions over any integer field type. Decoding refuses a value
// the field cannot hold.

func uvarint[T ~uint8 | ~uint32 | ~uint64 | ~int](w *wire, v *T, what string) {
	switch {
	case w.err != nil:
	case !w.dec:
		w.buf = binary.AppendUvarint(w.buf, uint64(*v))
	default:
		x, n := binary.Uvarint(w.data)
		if n <= 0 || uint64(T(x)) != x {
			w.truncated(what)
			return
		}
		*v, w.data = T(x), w.data[n:]
	}
}

func varint[T ~int | ~int32 | ~int64](w *wire, v *T, what string) {
	switch {
	case w.err != nil:
	case !w.dec:
		w.buf = binary.AppendVarint(w.buf, int64(*v))
	default:
		x, n := binary.Varint(w.data)
		if n <= 0 || int64(T(x)) != x {
			w.truncated(what)
			return
		}
		*v, w.data = T(x), w.data[n:]
	}
}

func (w *wire) u64(v *uint64, what string) {
	switch {
	case w.err != nil:
	case !w.dec:
		w.buf = binary.LittleEndian.AppendUint64(w.buf, *v)
	case len(w.data) < 8:
		w.truncated(what)
	default:
		*v, w.data = binary.LittleEndian.Uint64(w.data), w.data[8:]
	}
}

// f64 stores the exact bit pattern (fixed 8 bytes, little endian):
// metric values must survive the wire bit-identically for the
// byte-identity guarantee to hold.
func (w *wire) f64(v *float64, what string) {
	bits := math.Float64bits(*v)
	w.u64(&bits, what)
	if w.dec {
		*v = math.Float64frombits(bits)
	}
}

func (w *wire) boolean(v *bool, what string) {
	switch {
	case w.err != nil:
	case !w.dec && *v:
		w.buf = append(w.buf, 1)
	case !w.dec:
		w.buf = append(w.buf, 0)
	case len(w.data) < 1:
		w.truncated(what)
	default:
		*v, w.data = w.data[0] != 0, w.data[1:]
	}
}

// count is the element count of a list whose every element takes at
// least minWireBytes on the wire. Decoding rejects a count whose
// elements could not fit in the bytes left, before the caller allocates
// anything for them, and then leaves the count at zero.
func (w *wire) count(n *int, minWireBytes int, what string) {
	uvarint(w, n, what)
	if w.dec && w.err == nil && (*n < 0 || *n > len(w.data)/minWireBytes) {
		w.fail(fmt.Errorf("shard: implausible %s %d (%d bytes left)", what, *n, len(w.data)))
		*n = 0
	}
}

// bytes is a length-prefixed blob. A decoded blob aliases the payload
// (nil when empty) instead of copying it.
func (w *wire) bytes(v *[]byte, what string) {
	n := len(*v)
	w.count(&n, 1, what)
	switch {
	case w.err != nil:
	case !w.dec:
		w.buf = append(w.buf, *v...)
	case n == 0:
		*v = nil
	default:
		*v, w.data = w.data[:n:n], w.data[n:]
	}
}

func (w *wire) str(v *string, what string) {
	if w.dec {
		var b []byte
		w.bytes(&b, what)
		*v = string(b)
		return
	}
	n := len(*v)
	w.count(&n, 1, what)
	w.buf = append(w.buf, *v...)
}

// list is a counted slice: the count, then each element walked by
// elem. Decoding allocates the slice only once count has accepted its
// length.
func list[T any](w *wire, s *[]T, minWireBytes int, what string, elem func(*T)) {
	n := len(*s)
	w.count(&n, minWireBytes, what)
	if w.dec {
		*s = make([]T, n)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// nested is a length-prefixed sub-message walked by walk.
func (w *wire) nested(what string, walk func(*wire)) {
	var b []byte
	if !w.dec {
		var err error
		b, err = encode(walk)
		w.fail(err)
	}
	w.bytes(&b, what)
	if w.dec && w.err == nil {
		w.fail(decode(b, what, walk))
	}
}

// graph is a graph shipped as an aig.EncodeDelta record against ref,
// which both peers hold. It returns the record's length.
func (w *wire) graph(g **aig.AIG, ref *aig.AIG, what string) int {
	var rec []byte
	if !w.dec && w.err == nil {
		var err error
		if rec, err = aig.EncodeDelta(ref, *g); err != nil {
			w.fail(fmt.Errorf("shard: encoding %s: %w", what, err))
		}
	}
	w.bytes(&rec, what)
	if w.dec && w.err == nil {
		var err error
		if *g, err = aig.DecodeDelta(ref, rec); err != nil {
			w.fail(fmt.Errorf("shard: decoding %s: %w", what, err))
		}
	}
	return len(rec)
}

// version is the protocol version that opens configs and hellos;
// decoding refuses any other.
func (w *wire) version(what string) {
	v := byte(protocolVersion)
	uvarint(w, &v, what+" version")
	if w.err == nil && v != protocolVersion {
		w.fail(fmt.Errorf("shard: %s protocol version %d, this peer speaks %d", what, v, protocolVersion))
	}
}

// Fewest wire bytes one element of each counted list takes; count
// checks decoded counts against them.
const (
	specWireBytes   = 4  // kind, two models, area flag
	entryWireBytes  = 2  // base, spec
	recordWireBytes = 32 // fingerprint, structural hash, delay, area
	chainWireBytes  = 29 // index, seed, 3 metrics, accepted, history count, best
	stepWireBytes   = 29 // iteration, recipe, 3 metrics, accepted, ands, levels
	baseWireBytes   = 4  // length prefix, id, PI count, record
	jobWireBytes    = 27 // entry, index, 3 weights, seed offset
	workerWireBytes = 5  // name, jobs, lost, 2 prefilter counters
)

// ---- config ----

func encodeConfig(cfg RunConfig) []byte {
	b, _ := encode(func(w *wire) { w.config(&cfg) })
	return b
}

func decodeConfig(payload []byte) (cfg RunConfig, err error) {
	err = decode(payload, "config", func(w *wire) { w.config(&cfg) })
	return cfg, err
}

// config: the protocol version, the annealing base parameters, the
// evaluator specs, the entries and the cell library. Specs are
// deduplicated into a table — a suite sweeping many designs under one
// ML flow ships its (potentially large) model blobs once, not once per
// entry; entries reference specs by index the same way they reference
// bases.
func (w *wire) config(cfg *RunConfig) {
	w.version("config")
	w.params(&cfg.Base)
	var specs []EvalSpec
	if !w.dec {
		for _, e := range cfg.Entries {
			if specIndex(specs, e.Eval) < 0 {
				specs = append(specs, e.Eval)
			}
		}
	}
	list(w, &specs, specWireBytes, "spec count", w.evalSpec)
	list(w, &cfg.Entries, entryWireBytes, "entry count", func(e *EntrySpec) {
		uvarint(w, &e.Base, "entry base")
		si := 0
		if !w.dec {
			si = specIndex(specs, e.Eval)
		}
		uvarint(w, &si, "entry spec")
		if w.dec && w.err == nil {
			if si < 0 || si >= len(specs) {
				w.fail(fmt.Errorf("shard: entry references spec %d of %d", si, len(specs)))
				return
			}
			e.Eval = specs[si]
		}
	})
	if w.dec && w.err == nil && len(cfg.Entries) == 0 {
		w.fail(errors.New("shard: config without entries"))
	}
	w.bytes(&cfg.Library, "library")
}

func (w *wire) params(p *anneal.Params) {
	varint(w, &p.Iterations, "iterations")
	w.f64(&p.StartTemp, "start temp")
	w.f64(&p.DecayRate, "decay rate")
	w.f64(&p.DelayWeight, "delay weight")
	w.f64(&p.AreaWeight, "area weight")
	varint(w, &p.Seed, "seed")
	varint(w, &p.BatchSize, "batch size")
	varint(w, &p.BatchMin, "batch min")
	varint(w, &p.BatchMax, "batch max")
	varint(w, &p.Workers, "workers")
	varint(w, &p.Chains, "chains")
	varint(w, &p.CacheMode, "cache mode")
	varint(w, &p.CacheMaxEntries, "cache max entries")
	varint(w, &p.Incremental, "incremental mode")
	w.f64(&p.IncrementalThreshold, "incremental threshold")
	varint(w, &p.Parallelism, "parallelism")
}

func (w *wire) evalSpec(sp *EvalSpec) {
	w.str(&sp.Kind, "eval kind")
	w.bytes(&sp.DelayModel, "delay model")
	w.bytes(&sp.AreaModel, "area model")
	w.boolean(&sp.AreaPerNode, "area per node")
}

// specIndex returns the index of the first spec in specs that would
// reconstruct the same evaluator as s (the config's dedup predicate),
// or -1.
func specIndex(specs []EvalSpec, s EvalSpec) int {
	return slices.IndexFunc(specs, func(t EvalSpec) bool {
		return t.Kind == s.Kind && t.AreaPerNode == s.AreaPerNode &&
			bytes.Equal(t.DelayModel, s.DelayModel) && bytes.Equal(t.AreaModel, s.AreaModel)
	})
}

// ---- base graph ----

// emptyLike returns the dictionary-free encoding base: a graph with the
// same PI count and no AND nodes. Encoding against it makes every node
// explicit, i.e. an exact, order-preserving full-graph serialization
// using the same codec warm transfers use.
func emptyLike(numPIs int) *aig.AIG { return aig.NewBuilder(numPIs).Build() }

func encodeBase(id uint32, g *aig.AIG) ([]byte, error) {
	return encode(func(w *wire) { w.base(&id, &g) })
}

func decodeBase(payload []byte) (id uint32, g *aig.AIG, err error) {
	err = decode(payload, "base", func(w *wire) { w.base(&id, &g) })
	return id, g, err
}

func (w *wire) base(id *uint32, g **aig.AIG) {
	uvarint(w, id, "base id")
	numPIs := 0
	if !w.dec {
		numPIs = (*g).NumPIs()
	}
	uvarint(w, &numPIs, "base PI count")
	if numPIs < 0 || numPIs > 1<<20 {
		w.fail(fmt.Errorf("shard: implausible base PI count %d", numPIs))
		return
	}
	w.graph(g, emptyLike(numPIs), "base record")
}

// ---- jobs ----

func encodeJob(j JobSpec) []byte {
	b, _ := encode(func(w *wire) { w.job(&j) })
	return b
}

func decodeJob(payload []byte) (j JobSpec, err error) {
	err = decode(payload, "job", func(w *wire) { w.job(&j) })
	return j, err
}

func (w *wire) job(j *JobSpec) {
	uvarint(w, &j.Entry, "job entry")
	uvarint(w, &j.Index, "job index")
	w.f64(&j.DelayWeight, "delay weight")
	w.f64(&j.AreaWeight, "area weight")
	w.f64(&j.Decay, "decay")
	varint(w, &j.SeedOffset, "seed offset")
}

// ---- cache seeds ----

// encodeSeed serializes a mid-sweep preseed push: merged cache records
// of one session entry that this worker has not contributed or received
// before.
func encodeSeed(entry int, recs []eval.CacheRecord) []byte {
	b, _ := encode(func(w *wire) { w.seed(&entry, &recs) })
	return b
}

func decodeSeed(payload []byte) (entry int, recs []eval.CacheRecord, err error) {
	err = decode(payload, "seed", func(w *wire) { w.seed(&entry, &recs) })
	return entry, recs, err
}

func (w *wire) seed(entry *int, recs *[]eval.CacheRecord) {
	uvarint(w, entry, "seed entry")
	list(w, recs, recordWireBytes, "seed record count", w.record)
}

func (w *wire) record(r *eval.CacheRecord) {
	w.u64(&r.FP, "record fp")
	w.u64(&r.SH, "record sh")
	w.f64(&r.M.DelayPS, "record delay")
	w.f64(&r.M.AreaUM2, "record area")
}

func encodeJobError(index int, err error) []byte {
	msg := err.Error()
	b, _ := encode(func(w *wire) { w.jobError(&index, &msg) })
	return b
}

func decodeJobError(payload []byte) (index int, msg string, err error) {
	err = decode(payload, "job error", func(w *wire) { w.jobError(&index, &msg) })
	return index, msg, err
}

func (w *wire) jobError(index *int, msg *string) {
	uvarint(w, index, "job index")
	w.str(msg, "error")
}

// ---- results ----

// resultWire is the transfer and preseed accounting of one decoded
// result message, fed into the coordinator's Stats. The prefilter
// counters are session-cumulative snapshots of the sending worker.
type resultWire struct {
	deltaRecords      int
	deltaBytes        int64
	prefilterHits     int64
	prefilterRejected int64
}

// encodeResult serializes a completed job. Graphs (the per-chain best
// AIGs) are shipped exclusively as delta records against the job's base
// — after the base transfers, no full graph ever crosses the wire.
// Appended cache records export the worker's memo entries new since the
// previous result, and the trailing prefilter counters report the
// session-cumulative preseed effect (oracle calls skipped, records
// rejected as witnessed collisions) for coordinator-side accounting.
func encodeResult(base *aig.AIG, index int, wr *WorkResult, recs []eval.CacheRecord, cs eval.CacheStats) ([]byte, error) {
	jr := JobResult{Index: index, TrueDelayPS: wr.TrueDelayPS, TrueAreaUM2: wr.TrueAreaUM2, Result: wr.Result}
	rw := resultWire{prefilterHits: cs.PrefilterHits, prefilterRejected: cs.PrefilterRejected}
	return encode(func(w *wire) { w.result(base, &jr, &recs, &rw) })
}

// decodeResult reconstructs a JobResult against the session base.
func decodeResult(base *aig.AIG, payload []byte) (jr JobResult, recs []eval.CacheRecord, rw resultWire, err error) {
	err = decode(payload, "result", func(w *wire) { w.result(base, &jr, &recs, &rw) })
	return jr, recs, rw, err
}

func (w *wire) result(base *aig.AIG, jr *JobResult, recs *[]eval.CacheRecord, rw *resultWire) {
	r, winner := jr.Result, 0
	if w.dec {
		r = &anneal.Result{}
	} else {
		// The winner is the first chain holding the overall best graph.
		for i := range r.Chains {
			if r.Chains[i].Best == r.Best {
				winner = i
				break
			}
		}
	}
	uvarint(w, &jr.Index, "job index")
	w.f64(&jr.TrueDelayPS, "true delay")
	w.f64(&jr.TrueAreaUM2, "true area")
	uvarint(w, &winner, "winner")
	w.f64(&r.Initial.DelayPS, "initial delay")
	w.f64(&r.Initial.AreaUM2, "initial area")
	varint(w, &r.Evals, "evals")
	varint(w, &r.SpeculativeEvals, "speculative evals")
	varint(w, &r.CacheHits, "cache hits")
	varint(w, &r.CacheMisses, "cache misses")
	varint(w, &r.DeltaEvals, "delta evals")
	varint(w, &r.FullEvals, "full evals")
	varint(w, &r.MoveTime, "move time")
	varint(w, &r.EvalTime, "eval time")
	varint(w, &r.InitialEvalTime, "initial eval time")
	list(w, &r.Chains, chainWireBytes, "chain count", func(c *anneal.ChainResult) {
		varint(w, &c.Chain, "chain index")
		varint(w, &c.Seed, "chain seed")
		w.f64(&c.BestCost, "chain best cost")
		w.f64(&c.BestMetrics.DelayPS, "chain best delay")
		w.f64(&c.BestMetrics.AreaUM2, "chain best area")
		varint(w, &c.Accepted, "chain accepted")
		list(w, &c.History, stepWireBytes, "history length", w.step)
		rw.deltaBytes += int64(w.graph(&c.Best, base, "chain best record"))
	})
	if len(r.Chains) == 0 {
		w.fail(errors.New("shard: result without chain outcomes"))
	}
	list(w, recs, recordWireBytes, "cache record count", w.record)
	varint(w, &rw.prefilterHits, "prefilter hits")
	varint(w, &rw.prefilterRejected, "prefilter rejected")
	if !w.dec || w.err != nil {
		return
	}
	// The top-level Best/BestCost/BestMetrics/History alias the winning
	// chain, and Accepted re-aggregates over chains, exactly as
	// anneal.Run builds its Result.
	if winner < 0 || winner >= len(r.Chains) {
		w.fail(fmt.Errorf("shard: winner %d out of %d chains", winner, len(r.Chains)))
		return
	}
	win := &r.Chains[winner]
	r.Best, r.BestCost, r.BestMetrics, r.History = win.Best, win.BestCost, win.BestMetrics, win.History
	for _, c := range r.Chains {
		r.Accepted += c.Accepted
	}
	rw.deltaRecords = len(r.Chains)
	jr.Result = r
}

func (w *wire) step(s *anneal.Step) {
	varint(w, &s.Iter, "step iter")
	w.str(&s.Recipe, "step recipe")
	w.f64(&s.Metrics.DelayPS, "step delay")
	w.f64(&s.Metrics.AreaUM2, "step area")
	w.f64(&s.Cost, "step cost")
	w.boolean(&s.Accepted, "step accepted")
	varint(w, &s.Ands, "step ands")
	varint(w, &s.Levels, "step levels")
}

// resultIndex peeks the job index off a result payload without
// decoding the rest — the client needs it to pick the base graph the
// full decode runs against.
func resultIndex(payload []byte) (index int, err error) {
	w := &wire{dec: true, data: payload}
	uvarint(w, &index, "result index")
	return index, w.err
}

// ---- hub handshake ----

// encodeHello opens a hub connection: the protocol version (checked
// before anything else, so mismatched peers fail loudly at connect
// time), the peer's role, and a display name for logs and stats.
func encodeHello(role byte, name string) []byte {
	b, _ := encode(func(w *wire) { w.hello(&role, &name) })
	return b
}

func decodeHello(payload []byte) (role byte, name string, err error) {
	err = decode(payload, "hello", func(w *wire) { w.hello(&role, &name) })
	return role, name, err
}

func (w *wire) hello(role *byte, name *string) {
	w.version("hello")
	uvarint(w, role, "hello role")
	w.str(name, "hello name")
}

// ---- submissions ----

// encodeSubmit packs one whole session — the already-encoded config,
// every base payload (in base-index order), and every job — into one
// client message. Reusing the session payload encodings means the hub
// re-ships them to workers byte-for-byte.
func encodeSubmit(cfgPayload []byte, basePayloads [][]byte, jobs []JobSpec) []byte {
	b, _ := encode(func(w *wire) { w.submit(&cfgPayload, &basePayloads, &jobs) })
	return b
}

func decodeSubmit(payload []byte) ([]*aig.AIG, RunConfig, []JobSpec, error) {
	var (
		cfgPayload   []byte
		basePayloads [][]byte
		jobs         []JobSpec
	)
	if err := decode(payload, "submit", func(w *wire) { w.submit(&cfgPayload, &basePayloads, &jobs) }); err != nil {
		return nil, RunConfig{}, nil, err
	}
	cfg, err := decodeConfig(cfgPayload)
	if err != nil {
		return nil, RunConfig{}, nil, err
	}
	bases := make([]*aig.AIG, len(basePayloads))
	for i, bp := range basePayloads {
		id, g, err := decodeBase(bp)
		if err != nil {
			return nil, RunConfig{}, nil, err
		}
		if int(id) != i {
			return nil, RunConfig{}, nil, fmt.Errorf("shard: submit base %d carries id %d", i, id)
		}
		bases[i] = g
	}
	return bases, cfg, jobs, nil
}

func (w *wire) submit(cfgPayload *[]byte, basePayloads *[][]byte, jobs *[]JobSpec) {
	w.bytes(cfgPayload, "submit config")
	list(w, basePayloads, baseWireBytes, "submit base count", func(bp *[]byte) { w.bytes(bp, "submit base") })
	list(w, jobs, 1+jobWireBytes, "submit job count", func(j *JobSpec) {
		w.nested("submit job", func(w *wire) { w.job(j) })
	})
}

// Submission outcome kinds carried by msgSubmitDone.
const (
	submitOK        byte = 0
	submitJobFailed byte = 1 // a JobFailedError, reconstructed field by field
	submitError     byte = 2 // any other error, as a string
)

// encodeSubmitDone closes a submission: the outcome (success, a
// JobFailedError with enough structure for the client to rebuild it,
// or an opaque error string) followed by the session's Stats.
func encodeSubmitDone(runErr error, st *Stats) []byte {
	b, _ := encode(func(w *wire) { w.submitDone(&runErr, st) })
	return b
}

func decodeSubmitDone(payload []byte) (*Stats, error, error) {
	st := &Stats{}
	var runErr error
	if err := decode(payload, "submit outcome", func(w *wire) { w.submitDone(&runErr, st) }); err != nil {
		return nil, nil, err
	}
	return st, runErr, nil
}

func (w *wire) submitDone(runErr *error, st *Stats) {
	kind, jfe, msg := submitOK, &JobFailedError{}, ""
	switch e := (*runErr).(type) {
	case nil:
	case *JobFailedError:
		kind, jfe = submitJobFailed, e
	default:
		kind, msg = submitError, e.Error()
	}
	uvarint(w, &kind, "submit outcome")
	switch kind {
	case submitOK:
	case submitJobFailed:
		w.nested("failed job", func(w *wire) { w.job(&jfe.Job) })
		uvarint(w, &jfe.Attempts, "failed attempts")
		w.str(&jfe.Msg, "failed message")
		if w.dec {
			*runErr = jfe
		}
	case submitError:
		w.str(&msg, "submission error")
		if w.dec {
			*runErr = errors.New(msg)
		}
	default:
		w.fail(fmt.Errorf("shard: unknown submit outcome kind %d", kind))
	}
	w.stats(st)
}

// ---- stats ----

// stats is a session's full Stats — scalars, the merged caches (so a
// hub client sees the same cluster-wide memo view a local coordinator
// would), and the per-worker breakdown.
func (w *wire) stats(st *Stats) {
	varint(w, &st.BaseSends, "base sends")
	varint(w, &st.BaseBytes, "base bytes")
	varint(w, &st.DeltaRecords, "delta records")
	varint(w, &st.DeltaBytes, "delta bytes")
	varint(w, &st.JobSends, "job sends")
	varint(w, &st.Retries, "retries")
	varint(w, &st.Requeues, "requeues")
	varint(w, &st.WorkerLosses, "worker losses")
	varint(w, &st.Handoffs, "handoffs")
	varint(w, &st.QueueDepth, "queue depth")
	varint(w, &st.BytesSent, "bytes sent")
	varint(w, &st.BytesReceived, "bytes received")
	varint(w, &st.CacheRecords, "cache records")
	varint(w, &st.CacheDuplicates, "cache duplicates")
	varint(w, &st.SeedPushes, "seed pushes")
	varint(w, &st.SeedRecords, "seed records")
	varint(w, &st.SeedBytes, "seed bytes")
	varint(w, &st.PrefilterHits, "prefilter hits")
	varint(w, &st.PrefilterRejected, "prefilter rejected")
	varint(w, &st.StoreLoaded, "store loaded")
	varint(w, &st.StoreFlushed, "store flushed")
	list(w, &st.MergedCaches, 1, "merged cache count", w.mergedCache)
	list(w, &st.Workers, workerWireBytes, "worker count", func(ws *WorkerStats) {
		w.str(&ws.Name, "worker name")
		varint(w, &ws.Jobs, "worker jobs")
		w.boolean(&ws.Lost, "worker lost")
		varint(w, &ws.PrefilterHits, "worker prefilter hits")
		varint(w, &ws.PrefilterRejected, "worker prefilter rejected")
	})
}

// mergedCache is one entry's merged memo as a counted run of records;
// encoding walks the map in Go map order.
func (w *wire) mergedCache(m *map[eval.CacheKey]eval.Metrics) {
	n := len(*m)
	w.count(&n, recordWireBytes, "merged record count")
	if !w.dec {
		for k, v := range *m {
			rec := eval.CacheRecord{FP: k.FP, SH: k.SH, M: v}
			w.record(&rec)
		}
		return
	}
	*m = make(map[eval.CacheKey]eval.Metrics, n)
	for range n {
		var rec eval.CacheRecord
		w.record(&rec)
		(*m)[rec.Key()] = rec.M
	}
}
