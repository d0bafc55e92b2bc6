package tkd

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Sharding is a second way to execute TopK over the one Dataset type, not a
// second kind of dataset: dominance counts add up over a row partition, so
// Shard attaches a topology — N row-range shards behind a scatter-gather
// coordinator — and every query, mutation and lifecycle call keeps going
// through the same *Dataset. Each shard is an independent slice of the
// published epoch with its own binned bitmap index,
// servable in-process or by a remote tkdserver peer, while the coordinator
// keeps the full data and the global MaxScore queue. Answers are
// byte-identical to the unsharded plan's for every algorithm: IBIG runs
// through the coordinator, which offers exact summed partial scores to an
// answer heap in the one answer order (Result) and prunes across shards with
// the pushed-down global τ — over in-process shards in the serial candidate
// loop, over peers in windows scattered to them all (package
// repro/internal/shard); the other four run unsharded over the full rows and
// the global queue.
//
// The per-epoch shard set is lazily built state of the snapshot, next to the
// epoch's own artifacts: the first query (or Prepare) on an epoch slices it
// under the snapshot's lock, queries in flight keep the set of the epoch they
// started on, and retiring the snapshot closes the set's health loops. Nobody
// blocks anybody, as everywhere else.

// ShardMetrics is a snapshot of a sharded dataset's scatter-gather counters:
// fan-out calls, τ push-down prunes, retries, hedges, degraded answers and
// per-shard latency histograms.
type ShardMetrics = shard.Snapshot

// ShardPolicy tunes a sharded dataset's fault tolerance: retry attempts and
// backoff, hedging, attempt timeouts and circuit-breaker thresholds. See
// shard.Policy for the fields.
type ShardPolicy = shard.Policy

// BreakerState is a replica circuit breaker's position (closed, open or
// half-open).
type BreakerState = shard.BreakerState

// DefaultShardPolicy returns the serving defaults (3 attempts, 5ms..250ms
// jittered backoff, hedging on observed p99, breakers opening after 5
// consecutive failures for 1s).
func DefaultShardPolicy() ShardPolicy { return shard.DefaultPolicy() }

// ShardOption configures Shard.
type ShardOption func(*shardConfig)

type shardConfig struct {
	shards         int
	peers          [][]string // replica URL groups; shard i → peers[i % len]
	client         *http.Client
	policy         ShardPolicy
	policySet      bool
	healthInterval time.Duration
	peerTimeout    time.Duration
}

// WithShards splits the dataset into n row-range shards (default 2, minimum
// 1 — a one-shard "sharded" dataset is valid and useful for crosschecks).
func WithShards(n int) ShardOption {
	return func(c *shardConfig) { c.shards = n }
}

// WithShardPeers serves the shards from remote tkdserver peers instead of
// in-process: shard i goes to urls[i % len(urls)]. Each entry is one
// shard's replica set — either a single base URL or several separated by
// '|' ("http://a:8080|http://b:8080"), in which case the shard's reads
// load-balance across the replicas with per-replica circuit breakers,
// retries and optional hedging (see WithShardPolicy). Every peer must have
// the same dataset registered under the same name the coordinator uses —
// peers verify a per-shard content fingerprint on every call, so a
// divergent replica fails (and is quarantined) instead of corrupting the
// merge.
func WithShardPeers(urls ...string) ShardOption {
	return func(c *shardConfig) {
		c.peers = c.peers[:0]
		for _, u := range urls {
			var group []string
			for _, r := range strings.Split(u, "|") {
				if r = strings.TrimSpace(r); r != "" {
					group = append(group, r)
				}
			}
			if len(group) > 0 {
				c.peers = append(c.peers, group)
			}
		}
	}
}

// WithShardClient overrides the HTTP client used to reach peers.
func WithShardClient(client *http.Client) ShardOption {
	return func(c *shardConfig) { c.client = client }
}

// WithShardPolicy overrides the fault-tolerance policy applied to every
// shard's replica set (default DefaultShardPolicy).
func WithShardPolicy(p ShardPolicy) ShardOption {
	return func(c *shardConfig) { c.policy, c.policySet = p, true }
}

// WithShardHealthChecks starts a background health probe per shard replica
// set, every interval: replicas whose fingerprint diverges from the
// coordinator's expectation are quarantined (breaker tripped) until they
// catch up, without spending query attempts discovering it. 0 (the
// default) disables the probes. Call Close to stop them.
func WithShardHealthChecks(interval time.Duration) ShardOption {
	return func(c *shardConfig) { c.healthInterval = interval }
}

// WithShardPeerTimeout bounds one peer round trip when no WithShardClient
// was given (default shard.DefaultRemoteTimeout, 30s). Per-query deadlines
// via WithContext apply on top, per call.
func WithShardPeerTimeout(d time.Duration) ShardOption {
	return func(c *shardConfig) { c.peerTimeout = d }
}

// topology is the set-once shard configuration of a Dataset; the counters in
// met survive epoch swaps.
type topology struct {
	name           string // dataset name on peers (remote topologies)
	n              int
	peers          [][]string
	client         *http.Client
	policy         ShardPolicy
	healthInterval time.Duration
	met            *shard.Metrics
}

// Shard attaches a shard topology to src and returns src: from here on TopK
// runs through the scatter-gather coordinator. name is the dataset's
// registry name on remote peers (ignored for in-process shards). The
// topology is set once — sharding an already sharded dataset is an error —
// and mutations keep publishing epochs exactly as before; each epoch's
// shard set follows lazily.
func Shard(src *Dataset, name string, opts ...ShardOption) (*Dataset, error) {
	cfg := shardConfig{shards: 2, policy: DefaultShardPolicy()}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 1 {
		return nil, fmt.Errorf("tkd: shard count must be >= 1, got %d", cfg.shards)
	}
	if cfg.client == nil && len(cfg.peers) > 0 && cfg.peerTimeout > 0 {
		cfg.client = &http.Client{Timeout: cfg.peerTimeout}
	}
	t := &topology{
		name:           name,
		n:              cfg.shards,
		peers:          cfg.peers,
		client:         cfg.client,
		policy:         cfg.policy,
		healthInterval: cfg.healthInterval,
		met:            shard.NewMetrics(cfg.shards),
	}
	if !src.topo.CompareAndSwap(nil, t) {
		return nil, fmt.Errorf("tkd: dataset is already sharded")
	}
	return src, nil
}

// Shards returns the shard count of the attached topology, 0 for an
// unsharded dataset (a 1-shard topology is still a topology). It is the one
// accessor policy code branches on.
func (d *Dataset) Shards() int {
	if t := d.topo.Load(); t != nil {
		return t.n
	}
	return 0
}

// shardSet is one epoch's shard backends behind their coordinator. On an
// in-process topology locals holds every backend as its Local and parts their
// artifact holders (see snapshot.parts); both are nil on a peer topology.
type shardSet struct {
	coord    *shard.Coordinator
	backends []shard.Backend
	locals   []*shard.Local
	parts    []*core.Prepared
}

// shardSet returns the epoch's shard set, slicing it on first use. Slicing
// builds nothing: the shards' indexes and then the global queue come from
// prewarm — PrepareFor's, or the first query's that needs them.
func (s *snapshot) shardSet() *shardSet {
	if ss := s.shards.Load(); ss != nil {
		return ss
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	if ss := s.shards.Load(); ss != nil {
		return ss
	}
	t := s.d.topo.Load()
	ss := t.build(s.part, nil)
	ss.startHealthChecks(t.healthInterval)
	s.shards.Store(ss)
	if s.retired.Load() {
		ss.close() // built on an epoch already replaced: no health loops
	}
	return ss
}

// build slices the rows of global — the epoch's own holder, where the
// coordinator keeps the global queue — into the topology's row ranges. Shard i is an in-process Local — seeded with the
// artifacts of warm's, the set another Dataset built over this very data, when
// there is one — or a replica set of Remotes pointing at the shard's peer
// group (retry/hedge/breaker semantics apply even to a single-peer group —
// one replica is just the degenerate set). The replica sets' health loops are
// the caller's to start (startHealthChecks), once the epoch is published.
func (t *topology) build(global *core.Prepared, warm *shardSet) *shardSet {
	ds := global.Dataset()
	ss := &shardSet{coord: shard.NewCoordinator(global, t.met), backends: make([]shard.Backend, t.n)}
	if warm != nil && len(warm.backends) != t.n {
		warm = nil
	}
	for i := range ss.backends {
		lo, hi := i*ds.Len()/t.n, (i+1)*ds.Len()/t.n
		if len(t.peers) == 0 {
			l := shard.NewLocal(ds, lo, hi)
			if warm != nil {
				if wl, ok := warm.backends[i].(*shard.Local); ok {
					l.Install(*wl.Built())
				}
			}
			ss.backends[i] = l
			ss.locals = append(ss.locals, l)
			ss.parts = append(ss.parts, l.Prepared)
			continue
		}
		group := t.peers[i%len(t.peers)]
		var fp uint64
		if warm != nil {
			fp = warm.backends[i].Fingerprint() // same rows, already hashed
		} else {
			fp = ds.Slice(lo, hi).Fingerprint()
		}
		replicas := make([]shard.Backend, len(group))
		for r, u := range group {
			replicas[r] = shard.NewRemote(t.client, u, t.name, lo, hi, fp)
		}
		rs, err := shard.NewReplicaSet(i, replicas, t.policy, t.met)
		if err != nil {
			// Unreachable: all replicas were built from the same slice identity.
			ss.backends[i] = replicas[0]
			continue
		}
		ss.backends[i] = rs
	}
	return ss
}

// startHealthChecks starts the replica sets' probe loops. A probe asks a
// peer what it serves now and quarantines a replica that answers another
// fingerprint, so the loops may run only while the set's epoch is the
// published one: started before the swap they quarantine peers still on the
// predecessor, left running after it they quarantine peers that moved on —
// which in-flight queries on the retired epoch still reach through the
// peers' one-epoch grace.
func (ss *shardSet) startHealthChecks(interval time.Duration) {
	for _, b := range ss.backends {
		if rs, ok := b.(*shard.ReplicaSet); ok {
			rs.StartHealthChecks(interval)
		}
	}
}

// close stops the set's background machinery (replica-set health loops).
// Queries in flight on the set keep working — close only retires
// goroutines.
func (ss *shardSet) close() {
	for _, b := range ss.backends {
		if rs, ok := b.(*shard.ReplicaSet); ok {
			rs.Close()
		}
	}
}

// prewarm builds the artifacts of n: every non-empty in-process shard's
// binned index, side by side, then in global, the epoch's own holder, the
// coordinator's queue merged from the shards' sorted runs (queueRuns) — no
// sharded epoch sorts its rows for the queue — and BIG's index, which only
// the unsharded run reads. On a warm set it is an atomic load per holder.
func (ss *shardSet) prewarm(global *core.Prepared, n core.Need) {
	if n&core.NeedBinned != 0 {
		for _, p := range ss.parts {
			if p.Dataset().Len() > 0 && !p.Built().Has(core.NeedBinned) {
				ss.buildParts()
				break
			}
		}
	}
	if n&core.NeedQueue != 0 && !global.Built().Has(core.NeedQueue) {
		global.EnsureQueueFrom(func() []core.QueueRun { return ss.queueRuns(global.Dataset()) })
	}
	if n&core.NeedBitmap != 0 {
		global.Ensure(core.NeedBitmap)
	}
}

// buildParts builds every non-empty in-process shard's binned index (more
// shards than rows: an empty one has nothing to index), side by side. It is
// prewarm's cold path, apart so that a warm query allocates nothing for it.
func (ss *shardSet) buildParts() {
	var wg sync.WaitGroup
	for _, p := range ss.parts {
		if p.Dataset().Len() > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Ensure(core.NeedBinned)
			}()
		}
	}
	wg.Wait()
}

// queueRuns returns the coordinator's queue input for the epoch's rows ds,
// one run per shard in row order: an in-process shard's is the stats and
// ranks of the index it holds; a remote one's — its index lives on its peer —
// or an in-process one's that was asked for the queue alone is a sort of its
// slice, the slices side by side.
func (ss *shardSet) queueRuns(ds *data.Dataset) []core.QueueRun {
	runs := make([]core.QueueRun, len(ss.backends))
	var wg sync.WaitGroup
	lo := 0
	for i, b := range ss.backends {
		hi := lo + b.Rows()
		if l, ok := b.(*shard.Local); ok {
			if ix := l.Built().Binned; ix != nil {
				runs[i], lo = core.QueueRun{Stats: ix.Stats(), Ranks: ix.Ranks()}, hi
				continue
			}
		}
		wg.Add(1)
		go func(slice *data.Dataset) {
			defer wg.Done()
			s := slice.SortDims()
			runs[i] = core.QueueRun{Stats: s.Stats, Ranks: s.Ranks}
		}(ds.Slice(lo, hi))
		lo = hi
	}
	wg.Wait()
	return runs
}

// run is TopK's sharded IBIG arm: the coordinator walks the global queue. Over
// in-process shards it runs the serial candidate loop, scoring each candidate
// on every shard in turn (shard.Coordinator.RunLocal); over peers it fans
// windows of candidates out to the backends (shard.Coordinator.Run). eng
// wraps the whole run: the coordinator records its τ samples under it, and
// the peer plan its window spans.
func (ss *shardSet) run(ctx context.Context, k int, allowPartial bool, eng *obs.Span) (Result, Stats, Degradation, error) {
	eng.SetInt("shards", int64(len(ss.backends)))
	var outcome shard.Outcome
	opts := shard.RunOptions{AllowPartial: allowPartial, Outcome: &outcome, Trace: eng}
	var res Result
	var st Stats
	var err error
	if ss.locals != nil {
		res, st, err = ss.coord.RunLocal(ctx, k, ss.locals, opts)
	} else {
		res, st, err = ss.coord.Run(ctx, k, ss.backends, opts)
	}
	if err == nil && outcome.Degraded {
		eng.SetInt("degraded", 1)
		eng.SetInt("covered_rows", int64(outcome.CoveredRows))
	}
	return res, st, Degradation(outcome), err
}

// Metrics snapshots the scatter-gather counters (fan-out, τ push-downs,
// retries, hedges, degraded answers, per-shard latency histograms).
// Counters survive epoch swaps; an unsharded dataset reports the zero
// value.
func (d *Dataset) Metrics() ShardMetrics {
	if t := d.topo.Load(); t != nil {
		return t.met.Snapshot()
	}
	return ShardMetrics{}
}

// ReplicaStates snapshots every shard's replica breaker states, in shard
// order: nil for a shard not served by a replica set (in-process Locals),
// one BreakerState per replica otherwise; nil altogether for an unsharded
// dataset or an epoch whose set is not built yet. The serving layer renders
// these as the tkd_shard_breaker_state / tkd_shard_replicas_healthy gauges.
func (d *Dataset) ReplicaStates() [][]BreakerState {
	ss := d.builtShards()
	if ss == nil {
		return nil
	}
	out := make([][]BreakerState, len(ss.backends))
	for i, b := range ss.backends {
		if rs, ok := b.(*shard.ReplicaSet); ok {
			out[i] = rs.States()
		}
	}
	return out
}

// Close stops the background machinery (replica health-check loops) of the
// current epoch's shard set; a no-op on an unsharded dataset. Queries keep
// working; call it when retiring the dataset so the goroutines do not
// outlive it.
func (d *Dataset) Close() {
	if ss := d.builtShards(); ss != nil {
		ss.close()
	}
}

// builtShards returns the current epoch's shard set if it is built: nil on an
// unsharded dataset, while staging is dirty, and before the first use.
func (d *Dataset) builtShards() *shardSet {
	if s := d.cur.Load(); s != nil {
		return s.shards.Load()
	}
	return nil
}

// IndexPart is one separately persisted piece of a dataset's serving index:
// the whole binned index of an unsharded dataset, or the index of one
// non-empty in-process shard (remote shards persist on their peers, and a
// zero-row shard — more shards than rows — has no index at all).
type IndexPart struct {
	// Suffix distinguishes the part's file from its siblings: "" for the
	// dataset-level index, "%shard-<i>" for shard i. The '%' cannot appear
	// in a path-escaped dataset name, so names never collide.
	Suffix string
	// Save serializes the part (building it first if needed) under the
	// (rows, fingerprint) of the rows it indexes. Load restores a stream
	// written by Save, validating that pair against the part's rows, and
	// reports how many rows it patched on top: a stream saved when the part
	// was shorter is a checkpoint of a prefix, and the rows behind it are
	// folded in the way an append-publish folds them (core.Prepared's
	// LoadServing, for the dataset and for a shard alike — though no shard
	// grows in place today). On any error the part is unchanged and builds
	// lazily.
	Save func(io.Writer) error
	Load func(io.Reader) (patched int, err error)
}

// IndexParts lists the current epoch's persistable index parts.
func (d *Dataset) IndexParts() []IndexPart {
	s := d.current()
	if d.Shards() == 0 {
		return []IndexPart{{Save: s.part.SaveServing, Load: s.part.LoadServing}}
	}
	var parts []IndexPart
	for i, b := range s.shardSet().backends {
		if l, ok := b.(*shard.Local); ok && l.Rows() > 0 {
			parts = append(parts, IndexPart{Suffix: fmt.Sprintf("%%shard-%d", i), Save: l.SaveServing, Load: l.LoadServing})
		}
	}
	return parts
}
