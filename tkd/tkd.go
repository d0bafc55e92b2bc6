// Package tkd is the public API of the library: top-k dominating (TKD)
// queries over incomplete multi-dimensional data, implementing the
// algorithms of Miao, Gao, Zheng, Chen and Cui, "Top-k Dominating Queries
// on Incomplete Data" (IEEE TKDE 28(1), 2016).
//
// A TKD query returns the k objects that dominate the most other objects.
// On incomplete data, dominance is decided on the common observed
// dimensions only (smaller is better): o dominates p if o ≤ p wherever both
// are observed and o < p somewhere. The library ships the paper's five
// algorithms — Naive, ESB, UBB, BIG and IBIG — behind one entry point:
//
//	ds := tkd.NewDataset(4)
//	ds.Append("a", 1, 2, tkd.Missing, 4)
//	ds.Append("b", 2, tkd.Missing, 3, 5)
//	res, err := ds.TopK(2)                         // picks IBIG
//	res, err = ds.TopK(2, tkd.WithAlgorithm(tkd.UBB))
//
// Preprocessing artifacts (the MaxScore queue of §4.2 and the bitmap
// indexes of §4.3–4.4) are built lazily on first use and cached until the
// dataset changes; call Prepare to pay the cost up front.
//
// Queries are serial by default; WithWorkers(n) fans candidate scoring
// across a worker pool (0 = GOMAXPROCS, one for BIG and IBIG over at most
// 8,192 rows) without changing the answer:
//
//	res, err = ds.TopK(2, tkd.WithWorkers(0))      // parallel IBIG
//
// # Epochs
//
// A Dataset is fully concurrency-safe, for mutations as well as queries.
// Internally the data and its acceleration artifacts live in immutable
// published snapshots ("epochs"): a query resolves the current epoch with
// one atomic load and runs on it to completion, while a mutation (Append,
// Negate, ReplaceFrom) prepares the next epoch off to the side and publishes
// it with an atomic pointer swap. In-flight queries finish on the epoch they
// started on; queries that start after the swap see the new one; nobody
// blocks anybody. Epoch reports the current version, and ReplaceFrom is the
// zero-downtime wholesale swap a serving layer uses to hot-reload a resident
// dataset.
//
// # Topologies
//
// There is one dataset type and two ways to execute TopK on it. By default a
// query runs in-process over the whole epoch. Shard attaches a shard
// topology to the same *Dataset — N row-range shards, in-process or on
// remote peers, behind a coordinator — after which TopK scores across the
// shards and returns byte-identical answers. Nothing else
// about the dataset changes type or owner: mutations, epochs, Prepare and
// index persistence (IndexParts) all go through the same
// methods, which aggregate over the shards where there are any, and
// Shards() — 0 when unsharded — is the one accessor policy code branches
// on. See sharded.go.
package tkd

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/impute"
	"repro/internal/obs"
	"repro/internal/skyband"
)

// Missing marks an unobserved value in Append calls.
var Missing = math.NaN()

// MaxDim is the largest supported dimensionality.
const MaxDim = data.MaxDim

// Algorithm selects a query algorithm.
type Algorithm = core.Algorithm

// The five algorithms of the paper, in presentation order.
const (
	Naive = core.AlgNaive // exhaustive pairwise scoring (§4.1 baseline)
	ESB   = core.AlgESB   // extended skyband based, Algorithm 1
	UBB   = core.AlgUBB   // upper bound based, Algorithm 2
	BIG   = core.AlgBIG   // bitmap index guided, Algorithm 4
	IBIG  = core.AlgIBIG  // improved BIG, §4.4 (default)
)

// Item is one answer object; Result is the ranked answer set.
type (
	Item   = core.Item
	Result = core.Result
	// Stats exposes per-query work counters, including the number of
	// objects pruned by each of the paper's three heuristics.
	Stats = core.Stats
)

// snapshot is one published epoch of a Dataset: a frozen view of the data,
// the holder of its lazily grown acceleration artifacts and, on a sharded
// dataset, the epoch's shard set. The data is immutable from the moment the
// snapshot is published (mutations copy the staging dataset first — see
// Dataset.cowLocked), so any number of queries may run on one snapshot while
// newer epochs are being prepared and published.
type snapshot struct {
	d     *Dataset // the owner: topology, build count
	epoch uint64
	// ds is frozen (data.Dataset.Freeze): its first Fingerprint folds the rows
	// its chain lacks — all of a freshly loaded file, none of an
	// append-publish's, which seals its batch — once, however many readers
	// race to it, and every later one is O(1): monitoring endpoints, followers
	// and every publish poll it.
	ds *data.Dataset
	// part builds, loads, budgets and counts the epoch's artifacts; a warm
	// query reads them with one atomic load and no lock traffic.
	part *core.Prepared

	// shards is the epoch's shard set (sharded datasets only; see sharded.go),
	// built under smu by the first query, Prepare or IndexParts that needs it.
	shards atomic.Pointer[shardSet]
	smu    sync.Mutex

	// retired is set when a successor replaces the snapshot; a shard set a
	// late query still builds on it then closes its health loops at once.
	retired atomic.Bool
}

// newSnapshot freezes ds as the given epoch of d, its artifacts in a fresh
// holder (newPart).
func (d *Dataset) newSnapshot(epoch uint64, ds *data.Dataset, pre core.Pre) *snapshot {
	ds.Freeze()
	return &snapshot{d: d, epoch: epoch, ds: ds, part: d.newPart(ds, pre)}
}

// newPart returns a holder over ds seeded with the artifacts that arrive
// already made. A serving index it builds takes the rule's layout for ds's
// rows (core.BuildServingIndex); one that arrives made keeps its own.
func (d *Dataset) newPart(ds *data.Dataset, pre core.Pre) *core.Prepared {
	p := core.NewPrepared(ds, nil)
	p.Install(pre)
	return p
}

// parts lists the holders behind the epoch's serving indexes — the epoch's
// own on an unsharded dataset, one per in-process shard otherwise (none until
// the shard set is built). The build count is one loop over them.
func (s *snapshot) parts() []*core.Prepared {
	if s.d.topo.Load() == nil {
		return []*core.Prepared{s.part}
	}
	if ss := s.shards.Load(); ss != nil {
		return ss.parts
	}
	return nil
}

// prepare builds the epoch's artifacts of n and returns its own holder's set:
// everything there when unsharded; on a sharded dataset the shards build
// their binned indexes and the holder the rest (prewarm).
func (s *snapshot) prepare(n core.Need) *core.Pre {
	if s.d.topo.Load() == nil {
		return s.part.Ensure(n)
	}
	s.shardSet().prewarm(s.part, n)
	return s.part.Built()
}

// release retires a snapshot that was just replaced — or, in replaceFrom, is
// about to be: its builds move to the owner's running count and its shard
// set's health loops stop. In-flight queries on the old epoch keep working —
// close never touches the query path — and its index goes once the last of
// them is done.
func (s *snapshot) release() {
	s.retired.Store(true)
	for _, p := range s.parts() {
		s.d.retiredBuilds.Add(p.Builds())
	}
	if ss := s.shards.Load(); ss != nil {
		ss.close()
	}
}

// Dataset is an incomplete dataset plus cached query acceleration state.
//
// Concurrency: everything is safe to call concurrently with everything
// else. Queries run on immutable published epochs (see the package
// documentation); mutations prepare the next epoch off to the side and
// publish it atomically, so readers never block writers and vice versa.
type Dataset struct {
	// mu guards the staging data and epoch publication; queries do not
	// take it on the fast path.
	mu      sync.Mutex
	staging *data.Dataset // mutable master copy of the data
	shared  bool          // staging is referenced by a published snapshot: copy before writing

	cur   atomic.Pointer[snapshot] // the published epoch; nil when staging is dirty
	epoch atomic.Uint64            // epochs published so far

	retiredBuilds atomic.Int64 // serving-index builds of epochs since replaced

	// topo is the shard topology Shard attached, nil for an unsharded
	// dataset; set at most once (see sharded.go).
	topo atomic.Pointer[topology]

	// lineage records recent append-only publishes (see delta.go); any other
	// mutation clears it, cutting delta shipping back to full transfers.
	lineage []epochRecord
}

// NewDataset returns an empty dataset with the given dimensionality
// (1..MaxDim). Smaller values are better; use Negate for rating-style data.
func NewDataset(dim int) *Dataset {
	return &Dataset{staging: data.New(dim)}
}

// wrap adopts an internal dataset.
func wrap(ds *data.Dataset) *Dataset { return &Dataset{staging: ds} }

// current returns the published snapshot, publishing the staging data as a
// fresh epoch if mutations have outdated the previous one.
func (d *Dataset) current() *snapshot {
	if s := d.cur.Load(); s != nil {
		return s
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.publishLocked()
}

// publishLocked publishes staging as the next epoch (idempotent when a
// snapshot is already current). Callers hold d.mu.
func (d *Dataset) publishLocked() *snapshot {
	if s := d.cur.Load(); s != nil {
		return s
	}
	// No fold here: the rows the fingerprint chain has not seen (all of a
	// freshly loaded file, the appended ones after a copy-on-write) are folded
	// by the epoch's first Fingerprint, which a boot with nothing to check
	// reaches only after it serves.
	s := d.newSnapshot(d.epoch.Add(1), d.staging, core.Pre{})
	d.shared = true
	d.cur.Store(s)
	return s
}

// cowLocked makes staging privately writable: if a published snapshot
// references it, mutate a copy instead so in-flight queries keep reading
// frozen data. One copy covers any run of mutations between publishes.
func (d *Dataset) cowLocked() {
	if d.shared {
		d.staging = d.staging.Clone()
		d.shared = false
	}
}

// invalidateLocked retires the published snapshot after a data mutation;
// the next query publishes a fresh epoch from staging. Callers hold d.mu.
func (d *Dataset) invalidateLocked() {
	if old := d.cur.Load(); old != nil {
		d.cur.Store(nil)
		old.release()
	}
	d.clearLineageLocked()
}

// Epoch returns the number of epochs published so far — a version counter
// that advances on every visible mutation (including wholesale swaps via
// ReplaceFrom). Two queries that observe the same epoch saw identical data.
func (d *Dataset) Epoch() uint64 { return d.epoch.Load() }

// IndexBuilds reports how many times a serving index — the binned bitmap
// index of the dataset, or of an in-process shard — was built from scratch
// for this dataset, over all its epochs. Indexes restored through LoadIndex or
// an IndexPart's Load, patched by an append-publish or carried in by
// ReplaceFrom do not count, which makes the counter the observable for "did
// the warm start skip the rebuild".
func (d *Dataset) IndexBuilds() int64 {
	n := d.retiredBuilds.Load()
	for _, p := range d.parts() {
		n += p.Builds()
	}
	return n
}

// BuildTimes reports what the current epoch's artifacts cost to make: index
// is the time spent building or loading its serving indexes (BIG's bitmap
// too, if a query asked for one), queue the time spent on its MaxScore queue.
// A sharded dataset adds up its in-process shards, which build side by side —
// the sum can exceed the wall clock — and its queue is the coordinator's
// merge of the shards' sorted runs.
// Zero while staging is dirty; artifacts carried in from another epoch or
// dataset cost nothing. It is what a serving layer logs when a load ends.
func (d *Dataset) BuildTimes() (index, queue time.Duration) {
	s := d.cur.Load()
	if s == nil {
		return 0, 0
	}
	index, queue = s.part.BuildTimes()
	if ss := s.shards.Load(); ss != nil {
		for _, p := range ss.parts {
			i, q := p.BuildTimes()
			index, queue = index+i, queue+q
		}
	}
	return index, queue
}

// Append adds one object; use Missing for unobserved dimensions. Objects
// must have at least one observed value, and an ID without "\r\n" — the one
// sequence the CSV of an epoch stream does not carry back. Safe to call while
// queries are running: they finish on the epoch they started on.
func (d *Dataset) Append(id string, values ...float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cowLocked()
	_, err := d.staging.Append(id, values)
	if err == nil {
		d.invalidateLocked()
	}
	return err
}

// RestoreEpoch fast-forwards the epoch counter so the next published epoch
// is numbered at least n. It is the crash-recovery primitive: a restarted
// leader that replayed its write-ahead log resumes the epoch numbering its
// followers and health probes already track, instead of restarting from 1
// and reading as a massive regression. When a snapshot is already current
// the same bytes and artifacts are republished under the restored number. A
// counter already at or past n is left alone.
func (d *Dataset) RestoreEpoch(n uint64) {
	if n == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.epoch.Load() >= n {
		return
	}
	d.epoch.Store(n - 1) // the next Add(1) — here or in publishLocked — lands on n
	if old := d.cur.Load(); old != nil {
		pre := *old.part.Built()
		d.cur.Store(d.newSnapshot(d.epoch.Add(1), old.ds, pre))
		old.release()
	}
	d.clearLineageLocked()
}

// Negate flips every observed value's sign, converting larger-is-better
// data to the library's smaller-is-better convention. Cached indexes are
// invalidated; concurrent queries finish on the pre-Negate epoch.
func (d *Dataset) Negate() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cowLocked()
	d.staging.Negate()
	d.invalidateLocked()
}

// ReplaceFrom atomically publishes src's current data — and any warm
// acceleration artifacts src already built or loaded — as the receiver's
// next epoch. It is the zero-downtime reload primitive: build and index the
// replacement off to the side, then swap it in with one call. In-flight
// queries finish on the old epoch. src is unaffected (the two datasets share
// the frozen data copy-on-write).
func (d *Dataset) ReplaceFrom(src *Dataset) { d.replaceFrom(src, 0) }

// ReplaceFromAt is ReplaceFrom with an externally assigned epoch number —
// the publish primitive of a replication follower. The swapped-in epoch is
// numbered epoch when that moves the counter forward, so follower and
// leader agree on epoch numbers and a health probe can read convergence off
// the counter; a number at or below the current counter falls back to the
// ordinary +1 bump, keeping the counter strictly monotonic locally.
func (d *Dataset) ReplaceFromAt(src *Dataset, epoch uint64) { d.replaceFrom(src, epoch) }

// replaceFrom implements ReplaceFrom/ReplaceFromAt; at == 0 means "next".
func (d *Dataset) replaceFrom(src *Dataset, at uint64) {
	if src == d {
		return
	}
	ss := src.current()
	pre := *ss.part.Built()
	// src's shard set does not cross over as is — its coordinator counts
	// into src's metrics and its replica sets run src's health loops — but a
	// sharded receiver rebuilds its own set around src's warm in-process
	// shards, so per-shard indexes built off to the side survive the swap.
	part := d.newPart(ss.ds, pre)
	var shards *shardSet
	if t, warm := d.topo.Load(), ss.shards.Load(); t != nil && warm != nil {
		shards = t.build(part, warm)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &snapshot{d: d, epoch: d.nextEpochLocked(at), ds: ss.ds, part: part}
	s.shards.Store(shards)
	d.staging = ss.ds
	d.shared = true
	// Health loops run on the published epoch only (see startHealthChecks):
	// the predecessor is retired — its loops stopped — before the swap, the
	// successor's start after it.
	if old := d.cur.Load(); old != nil {
		old.release()
	}
	d.cur.Store(s)
	if shards != nil {
		shards.startHealthChecks(d.topo.Load().healthInterval)
	}
	d.clearLineageLocked()
}

// view returns a frozen view of the data for read-only accessors; like a
// query, it publishes the staging data if no epoch is current.
func (d *Dataset) view() *data.Dataset { return d.current().ds }

// Len returns the number of objects; Dim the dimensionality.
func (d *Dataset) Len() int { return d.view().Len() }

// Dim returns the dataset dimensionality.
func (d *Dataset) Dim() int { return d.view().Dim() }

// MissingRate returns the fraction of missing cells (the paper's σ), O(1)
// from the count the data carries forward across appends.
func (d *Dataset) MissingRate() float64 { return d.view().MissingRate() }

// Fingerprint returns a 64-bit digest of the dataset's full contents —
// dimensionality, object order, IDs, masks and observed values — stable
// across process restarts. A persisted-index cache compares fingerprints to
// decide reuse-vs-rebuild without trusting file names or mtimes. An epoch
// folds its rows into a running chain (see data.Dataset.Fingerprint) once, on
// the first call — concurrent callers wait for that one fold — and the calls
// after it are O(1); an append-publish folds its batch alone.
func (d *Dataset) Fingerprint() uint64 { return d.view().Fingerprint() }

// FoldTime reports what the current epoch's fingerprint fold has cost so far:
// 0 while it is deferred to the first Fingerprint, and for an append-publish
// the fold of its batch. Zero while staging is dirty. Like BuildTimes, it is
// what a serving layer logs when a load ends.
func (d *Dataset) FoldTime() time.Duration {
	if s := d.cur.Load(); s != nil {
		return s.ds.FoldTime()
	}
	return 0
}

// ShardData returns the frozen data of the dataset's current epoch — the
// handle the serving layer's shard-protocol endpoint slices row ranges
// from. The returned dataset is immutable (mutations publish new epochs),
// and the pointer itself identifies the epoch: two calls return the same
// pointer exactly when no mutation was published between them.
func (d *Dataset) ShardData() *data.Dataset { return d.view() }

// ID returns the identifier of the i-th object.
func (d *Dataset) ID(i int) string { return d.view().Obj(i).ID }

// Value returns the i-th object's value in dimension dim and whether it is
// observed.
func (d *Dataset) Value(i, dim int) (float64, bool) {
	o := d.view().Obj(i)
	if !o.Observed(dim) {
		return 0, false
	}
	return o.Values[dim], true
}

// Dominates reports whether object i dominates object j under the
// incomplete-data dominance relation (Definition 1 of the paper).
func (d *Dataset) Dominates(i, j int) bool {
	v := d.view()
	return core.Dominates(v.Obj(i), v.Obj(j))
}

// Score returns score(i): how many objects i dominates (Definition 2).
func (d *Dataset) Score(i int) int { return core.Score(d.view(), i) }

// Option configures TopK.
type Option func(*queryConfig)

type queryConfig struct {
	alg          Algorithm
	algSet       bool
	stats        *Stats
	workers      int
	ctx          context.Context
	allowPartial bool
	degradation  *Degradation
	trace        *obs.Span
}

// WithAlgorithm forces a specific algorithm (default IBIG).
func WithAlgorithm(a Algorithm) Option {
	return func(c *queryConfig) { c.alg, c.algSet = a, true }
}

// WithWorkers fans candidate scoring across n goroutines: 0 selects
// GOMAXPROCS — one for BIG and IBIG over at most 8,192 rows, where a second
// worker costs more than it saves (core.UsefulWorkers) — and 1 (the default)
// is the serial path. UBB, BIG and IBIG run
// their one candidate loop through the batch-windowed parallel engine, and so
// does Naive, over every row; ESB fans its per-bucket skyband queries across
// the pool and scores the survivors through the engine.
//
// Determinism: the answer order is total (see Result), so a parallel query
// returns the same objects, ranks and scores as the serial run over the same
// dataset, rank-k ties included: WithWorkers never changes a query's answer,
// only its wall-clock time.
func WithWorkers(n int) Option {
	return func(c *queryConfig) { c.workers = n }
}

// WithStats captures the query's work counters and the epoch it ran on into
// st.
func WithStats(st *Stats) Option {
	return func(c *queryConfig) { c.stats = st }
}

// WithContext bounds the query with ctx: cancellation or an expired
// deadline stops the work within a window of 256 candidates — and drops a
// sharded query's in-flight replica RPCs — and TopK returns ctx's error. A
// nil ctx is ignored.
func WithContext(ctx context.Context) Option {
	return func(c *queryConfig) { c.ctx = cmp.Or(ctx, c.ctx) }
}

// Span is a trace span of the obs tracing spine; a nil *Span disables
// tracing, at the cost of one nil check per window on the query path.
type Span = obs.Span

// WithTrace records the query's execution under sp as an "engine" child
// span: the algorithm run, its pruning Stats (H1/H2/H3 counts, comparisons,
// windows) and the τ-threshold trajectory at window granularity; on a
// dataset sharded across peers, the windows and their scatter and gather
// phases too. A nil sp
// means untraced, as does leaving the option out: a span is an argument,
// never read from the WithContext context.
func WithTrace(sp *Span) Option {
	return func(c *queryConfig) { c.trace = sp }
}

// Degradation reports how a WithAllowPartial query was answered. Degraded
// false means full coverage — the answer is byte-identical to the ordinary
// one; Degraded true means the scores count only CoveredRows of TotalRows
// (the reachable row-ranges), exactly.
type Degradation struct {
	Degraded    bool
	CoveredRows int
	TotalRows   int
	// DownShards lists the unreachable shard indices (empty unless Degraded).
	DownShards []int
}

// WithAllowPartial opts one query into graceful degradation on a sharded
// dataset: when every replica of some shard is down, the query answers
// exactly over the live row-ranges instead of failing, and d (which may be
// nil) receives the explicit coverage report. Without this option the
// default is fail-closed — an unreachable shard fails the query with a
// typed error, never a silently partial answer. Only an IBIG query on a
// sharded dataset has shards to lose; every other query always reports full
// coverage.
func WithAllowPartial(d *Degradation) Option {
	return func(c *queryConfig) {
		c.allowPartial = true
		c.degradation = d
	}
}

// Prepare eagerly builds every preprocessing artifact (MaxScore queue,
// bitmap index, binned bitmap index) so that subsequent TopK calls measure
// pure query time; on a sharded dataset, every in-process shard's binned
// index and the global queue merged from them — the IBIG scatter plan. It is
// idempotent and safe to call concurrently.
func (d *Dataset) Prepare() {
	if d.Shards() > 0 {
		d.PrepareFor(IBIG)
		return
	}
	d.PrepareFor(UBB, BIG, IBIG)
}

// PrepareFor eagerly builds only the artifacts the given algorithms
// consume. A serving process that answers IBIG by default calls
// PrepareFor(IBIG) to skip the value-granular bitmap (the most expensive
// artifact, needed only by BIG); anything skipped still builds lazily on
// first use. On a sharded dataset the in-process shards build their binned
// indexes in parallel (remote shards warm on their peers, on first use), the
// coordinator merges its queue from their sorts, and BIG's index builds over
// the coordinator's full rows.
func (d *Dataset) PrepareFor(algs ...Algorithm) {
	var n core.Need
	for _, a := range algs {
		n |= core.NeedFor(a)
	}
	d.current().prepare(n)
}

// SetCacheBudget does nothing. It bounded the decompressed-column cache of
// a compressed index; every serving column is dense now, so there is no cache
// to bound. It stays, with CacheStats, only while the served-request
// benchmark (benchmark/layers.go) still calls both.
func (d *Dataset) SetCacheBudget(bytes int64) {}

// CacheStats is what CacheStats reports: always zero (see SetCacheBudget).
type CacheStats struct{ Hits, Misses int64 }

// CacheStats returns zero counters: there is no column cache (see
// SetCacheBudget).
func (d *Dataset) CacheStats() CacheStats { return CacheStats{} }

// parts returns the current epoch's parts without publishing or building
// anything (none while staging is dirty).
func (d *Dataset) parts() []*core.Prepared {
	if s := d.cur.Load(); s != nil {
		return s.parts()
	}
	return nil
}

// TopK answers the TKD query: the k objects with the highest scores, in
// answer order — by score, then MaxScore bound, then row index (Result), so
// rank-k ties, which the paper breaks arbitrarily, are broken the same way by
// every algorithm and every k. Safe for concurrent use: any number of goroutines may query one
// Dataset, sharing its warm indexes, even while other
// goroutines mutate it (each query runs on the epoch current at its start).
//
// On a sharded dataset (see Shard) the same options give the same answers —
// byte-identical. IBIG runs through the shard coordinator, ignoring
// WithWorkers: over in-process shards it is the serial candidate loop, over
// peers a scatter-gather whose fan-out across shards is its parallelism. The
// other four run unsharded over the epoch's full rows.
//
// Unsharded, UBB, BIG and IBIG are one candidate loop over the MaxScore
// queue — serial, or on the WithWorkers engine — each with its own scorer.
// What the algorithm needs is built before the query if missing; no query
// builds a B+-tree.
func (d *Dataset) TopK(k int, opts ...Option) (Result, error) {
	cfg := queryConfig{alg: IBIG, workers: 1, ctx: context.Background()}
	for _, o := range opts {
		o(&cfg)
	}
	res, st, deg, err := d.topK(k, &cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.stats != nil {
		*cfg.stats = st
	}
	if cfg.degradation != nil {
		*cfg.degradation = deg
	}
	return res, nil
}

// Query is an IBIG query's options spelled as one value, for a caller that
// answers a query per request: TopK's Option closures, and the config and
// Stats they point into, are heap allocations a served query need not pay.
// Each field is its option's argument.
type Query struct {
	Workers      int             // WithWorkers(Workers): 0 selects GOMAXPROCS, 1 is serial
	Context      context.Context // WithContext(Context); nil is context.Background
	Trace        *Span           // WithTrace(Trace); nil is untraced
	AllowPartial bool            // WithAllowPartial
}

// Run answers the TKD query with IBIG under q: the answer, Stats and
// Degradation TopK(k) gives under the same options, returned rather than
// written through pointers.
func (d *Dataset) Run(k int, q Query) (Result, Stats, Degradation, error) {
	cfg := queryConfig{alg: IBIG, workers: q.Workers, ctx: cmp.Or(q.Context, context.Background()),
		trace: q.Trace, allowPartial: q.AllowPartial}
	return d.topK(k, &cfg)
}

// topK is TopK and Run under a resolved config; a failed query returns zero
// Stats and Degradation.
func (d *Dataset) topK(k int, cfg *queryConfig) (Result, Stats, Degradation, error) {
	if k <= 0 {
		return Result{}, Stats{}, Degradation{}, fmt.Errorf("tkd: k must be positive, got %d", k)
	}
	if err := cfg.ctx.Err(); err != nil {
		return Result{}, Stats{}, Degradation{}, err
	}
	t := d.topo.Load()
	s := d.current()
	rows := s.ds.Len()
	if rows == 0 {
		return Result{}, Stats{}, Degradation{}, fmt.Errorf("tkd: empty dataset")
	}
	// Whatever has to be built is built before the engine span opens.
	pre := s.prepare(core.NeedFor(cfg.alg))
	eng := cfg.trace.StartChild("engine") // nil when untraced: every span call below no-ops
	var res Result
	var st Stats
	var err error
	// Only the scatter plan has shards to lose: coverage is otherwise total.
	deg := Degradation{CoveredRows: rows, TotalRows: rows}
	if t != nil && cfg.alg == IBIG {
		res, st, deg, err = s.shardSet().run(cfg.ctx, k, cfg.allowPartial, eng)
	} else {
		res, st, err = core.RunContext(cfg.ctx, cfg.alg, s.ds, k, pre, cfg.workers, eng)
	}
	stampRun(eng, cfg.alg, k, rows, st, err)
	eng.End()
	if err != nil {
		return Result{}, Stats{}, Degradation{}, err
	}
	st.Epoch = s.epoch
	return res, st, deg, nil
}

// stampRun records the engine span's attributes once the run has ended, in
// one step: what ran over how many rows, then the paper's pruning counters,
// or the error that ended the run.
func stampRun(sp *obs.Span, alg Algorithm, k, rows int, st Stats, err error) {
	if sp == nil {
		return
	}
	ran := [...]obs.Attr{
		{Key: "algorithm", Str: alg.String(), IsStr: true},
		{Key: "k", Int: int64(k)},
		{Key: "rows", Int: int64(rows)},
	}
	if err != nil {
		sp.SetAttrs(ran[0], ran[1], ran[2], obs.Attr{Key: "error", Str: err.Error(), IsStr: true})
		return
	}
	sp.SetAttrs(ran[0], ran[1], ran[2],
		obs.Attr{Key: "candidates", Int: int64(st.Candidates)},
		obs.Attr{Key: "scored", Int: int64(st.Scored)},
		obs.Attr{Key: "pruned_h1", Int: int64(st.PrunedH1)},
		obs.Attr{Key: "pruned_h2", Int: int64(st.PrunedH2)},
		obs.Attr{Key: "pruned_h3", Int: int64(st.PrunedH3)},
		obs.Attr{Key: "pruned_skyband", Int: int64(st.PrunedSkyband)},
		obs.Attr{Key: "comparisons", Int: st.Comparisons},
		obs.Attr{Key: "windows", Int: int64(st.Windows)},
		obs.Attr{Key: "workers", Int: int64(st.Workers)},
	)
}

// SaveIndex builds (if necessary) and serializes the IBIG binned bitmap
// index, the dominant preprocessing artifact. LoadIndex restores it against
// the same dataset, skipping the rebuild.
func (d *Dataset) SaveIndex(w io.Writer) error {
	return d.current().part.SaveServing(w)
}

// ErrIndexStale is wrapped by LoadIndex (and an IndexPart's Load) when the
// stream is a sound index of other rows than this dataset's — a changed
// source file, another dataset's file under this name. It is the expected
// miss of a persisted-index cache, as opposed to a corrupt file.
var ErrIndexStale = bitmapidx.ErrStale

// LoadIndex restores an index written by SaveIndex. The stream is a
// checkpoint: it names the row count and fingerprint it was saved at, and it
// is accepted when the dataset's first that-many rows hash to that
// fingerprint — the whole dataset, or a prefix of one that has grown since
// (a restart that replayed its write-ahead log on top), in which case the
// rows behind the prefix are patched in by the same bitmapidx.AppendRows that
// serves append-publishes. Shape and per-dimension domains are verified and
// the stream is checksummed. On any error the data and its index are left
// exactly as they were — a corrupt or stale index file never poisons a
// running server. (core.Prepared.LoadServing holds the rule; mutations that
// are still staged are published first, as the next query would.)
func (d *Dataset) LoadIndex(r io.Reader) error {
	_, err := d.current().part.LoadServing(r)
	return err
}

// KSkyband returns the dataset indices of the objects dominated by fewer
// than k others — the kISB operator over incomplete data that ESB's pruning
// is built on (§4.1/Lemma 1 of the paper). Results preserve dataset order.
func (d *Dataset) KSkyband(k int) []int {
	ids := skyband.GlobalKSkyband(d.view(), k)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}

// Skyline returns the incomplete-data skyline: the objects no other object
// dominates (the 1-skyband).
func (d *Dataset) Skyline() []int { return d.KSkyband(1) }

// TopKMFD answers the TKD query under the MFD-weighted scoring extension of
// §3: each dominance o ≺ p earns weight Σ_{both observed} w_i +
// λ·Σ_{one observed} w_j, and objects are ranked by accumulated weight.
func (d *Dataset) TopKMFD(k int, weights []float64, lambda float64) ([]core.WeightedItem, error) {
	return core.TopKMFD(d.view(), k, core.MFD{Weights: weights, Lambda: lambda})
}

// Impute returns a complete copy of the dataset with missing cells
// predicted by SGD matrix factorization (the Table 4 baseline): factors
// latent dimensions, iters sweeps. Pass factors, iters <= 0 for the paper's
// defaults (8 factors, 50 iterations).
func (d *Dataset) Impute(factors, iters int, seed int64) *Dataset {
	cfg := impute.DefaultConfig(seed)
	if factors > 0 {
		cfg.Factors = factors
	}
	if iters > 0 {
		cfg.Iterations = iters
	}
	return wrap(impute.Impute(d.view(), cfg))
}

// JaccardDistance measures answer-set dissimilarity by object ID, the
// Table 4 metric.
func JaccardDistance(a, b Result) float64 {
	return impute.JaccardDistance(a.IDs(), b.IDs())
}

// OptimalBins evaluates the paper's Eq. (8): the bin count that optimizes
// the space×time product for a dataset of n objects with missing rate
// sigma.
func OptimalBins(n int, sigma float64) int { return bitmapidx.OptimalBins(n, sigma) }

// WriteCSV serializes the dataset ("-" marks missing values).
func (d *Dataset) WriteCSV(w io.Writer) error { return d.view().WriteCSV(w) }

// ReadCSV parses a dataset written by WriteCSV, reading r to its end.
func ReadCSV(r io.Reader) (*Dataset, error) {
	ds, err := data.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	return wrap(ds), nil
}

// ParseCSV is ReadCSV over bytes already in memory; it does not retain b.
func ParseCSV(b []byte) (*Dataset, error) {
	ds, err := data.ParseCSV(b)
	if err != nil {
		return nil, err
	}
	return wrap(ds), nil
}

// ---- Workload generation (the paper's §5 datasets) ----

// GenerateIND returns a synthetic dataset with independent uniform values:
// n objects, dim dimensions, c distinct values per dimension, missing rate
// sigma.
func GenerateIND(n, dim, c int, sigma float64, seed int64) *Dataset {
	return wrap(gen.Synthetic(gen.Config{N: n, Dim: dim, Cardinality: c, MissingRate: sigma, Dist: gen.IND, Seed: seed}))
}

// GenerateAC is GenerateIND with anti-correlated values, the adversarial
// distribution for dominance queries.
func GenerateAC(n, dim, c int, sigma float64, seed int64) *Dataset {
	return wrap(gen.Synthetic(gen.Config{N: n, Dim: dim, Cardinality: c, MissingRate: sigma, Dist: gen.AC, Seed: seed}))
}

// SimulateMovieLens returns a MovieLens-shaped workload (3,700 movies × 60
// audience ratings 1..5, 95% missing), already negated to smaller-is-better.
func SimulateMovieLens(seed int64) *Dataset { return wrap(gen.MovieLens(seed)) }

// SimulateNBA returns an NBA-shaped workload (16,000 players × 4 correlated
// attributes, 20% missing), negated to smaller-is-better.
func SimulateNBA(seed int64) *Dataset { return wrap(gen.NBA(seed)) }

// SimulateZillow returns a Zillow-shaped workload (n real-estate entries ×
// 5 attributes with wildly different domains, 14.2% missing); n <= 0 means
// the full 200,000.
func SimulateZillow(seed int64, n int) *Dataset { return wrap(gen.Zillow(seed, n)) }
