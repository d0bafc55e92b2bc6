package server

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/tkd"
)

// latencyBuckets are the upper bounds (seconds) of the query latency
// histogram, Prometheus-style cumulative; the implicit +Inf bucket is the
// total count. Single-sourced from the shard package so the query-latency
// and per-shard scatter-latency families stay bucket-compatible on one
// dashboard by construction.
var latencyBuckets = shard.LatencyBuckets

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation.
type histogram struct {
	counts   [len(latencyBuckets)]atomic.Int64 // per-bucket (non-cumulative) counts
	total    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	// total first: a concurrent scrape then renders the in-flight
	// observation in +Inf only, which keeps the cumulative buckets monotone
	// (bucket > +Inf would be invalid exposition).
	h.total.Add(1)
	h.sumNanos.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
}

// write renders the histogram in Prometheus text form under name with a
// dataset label.
func (h *histogram) write(w io.Writer, name, dataset string) {
	h.writeLabeled(w, name, "dataset", dataset)
}

// writeLabeled renders the histogram under name with one arbitrary label.
func (h *histogram) writeLabeled(w io.Writer, name, label, value string) {
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n", name, label, value, formatBound(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, h.total.Load())
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, float64(h.sumNanos.Load())/float64(time.Second))
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.total.Load())
}

// queryStages enumerates the tkd_query_stage_seconds labels in exposition
// order. Each stage is fed from the trace spans of the same name — queue is
// the scheduler wait, engine the algorithm run, scatter/gather the two shard
// fan-out phases, retry the backoff waits between replica attempts, wal the
// write-ahead log time of ingest appends and publish checkpoints, publish
// the epoch-fold time of the ingest publisher (index patch or rebuild).
var queryStages = [...]string{"queue", "engine", "scatter", "gather", "retry", "wal", "publish"}

// stageMetrics breaks query time down by pipeline stage, server-wide.
type stageMetrics struct {
	hists [len(queryStages)]histogram
}

// observeTrace folds one completed trace's span durations into the stage
// histograms. Coalesced replies observe only their own queue wait: their
// execution subtree is shared with (and already observed by) the hosting
// query, so counting it again would double-book engine and shard time.
func (m *stageMetrics) observeTrace(tr *obs.Trace, coalesced bool) {
	tr.Walk(func(sp *obs.Span) {
		name := sp.Name()
		if coalesced && name != "queue" {
			return
		}
		for i, stage := range queryStages {
			if name == stage {
				m.hists[i].observe(sp.Duration())
				return
			}
		}
	})
}

// write renders the per-stage histograms.
func (m *stageMetrics) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP tkd_query_stage_seconds Query time by pipeline stage: scheduler queue wait, engine execution, shard scatter (bounds) and gather (scores) phases, retry backoff waits, WAL write/fsync time, and ingest publish (epoch fold) time.\n")
	fmt.Fprintf(w, "# TYPE tkd_query_stage_seconds histogram\n")
	for i, stage := range queryStages {
		m.hists[i].writeLabeled(w, "tkd_query_stage_seconds", "stage", stage)
	}
}

func formatBound(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", ub)
}

// buildVersion reports the main module's version as recorded in the build
// info ("(devel)" for plain go-build binaries, a pseudo-version or tag for
// module-aware installs; "unknown" when no build info is embedded).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// datasetMetrics aggregates one dataset's serving counters. Query counts are
// per algorithm; the pruning counters accumulate each query's core.Stats via
// Stats.Add under a light mutex (queries are milliseconds, the add is
// nanoseconds).
// numAlgorithms sizes the per-algorithm counters; IBIG is the last entry of
// core's algorithm enumeration.
const numAlgorithms = int(core.AlgIBIG) + 1

type datasetMetrics struct {
	queries          [numAlgorithms]atomic.Int64
	errors           atomic.Int64 // failed client queries
	batches          atomic.Int64 // scheduling windows served
	coalesced        atomic.Int64 // queries answered by sharing an identical query's run
	reloads          atomic.Int64 // epoch swaps served for this dataset
	deadlineExceeded atomic.Int64 // queries that outran their deadline (504s)
	latency          histogram

	mu  sync.Mutex
	agg core.Stats
}

// lifecycleMetrics aggregates the server-wide dataset lifecycle counters:
// evictions, persisted-index cache traffic and from-scratch index builds.
// (Reloads are per-dataset, on datasetMetrics.)
type lifecycleMetrics struct {
	evictions        atomic.Int64 // datasets removed via DELETE /v1/datasets/{name}
	indexWarmLoads   atomic.Int64 // binned indexes restored from the IndexDir cache
	indexBuilds      atomic.Int64 // binned indexes built from scratch
	indexCacheErrors atomic.Int64 // unreadable/unwritable cache files (each degraded to a rebuild)
	deltaShips       atomic.Int64 // epoch deltas served to followers instead of full streams
	deltaShipBytes   atomic.Int64 // bytes those delta bodies put on the wire
}

// record folds one finished execution into the counters. served is the
// number of client queries the execution answered (> 1 when the scheduler
// coalesced identical queries onto it); the latency and work counters are
// recorded once per execution, the query counter once per client.
func (m *datasetMetrics) record(alg core.Algorithm, st core.Stats, elapsed time.Duration, served int, err error) {
	if err != nil {
		m.errors.Add(int64(served))
		return
	}
	m.queries[int(alg)].Add(int64(served))
	m.latency.observe(elapsed)
	m.mu.Lock()
	m.agg.Add(st)
	m.mu.Unlock()
}

// aggStats snapshots the accumulated work counters.
func (m *datasetMetrics) aggStats() core.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.agg
}

// queryTotal sums the per-algorithm query counters.
func (m *datasetMetrics) queryTotal() int64 {
	var t int64
	for i := range m.queries {
		t += m.queries[i].Load()
	}
	return t
}

// writeMetrics renders the whole server state in Prometheus text exposition
// format (also human-readable enough to double as the expvar-style dump).
func (s *Server) writeMetrics(w io.Writer) {
	entries := s.reg.list()

	fmt.Fprintf(w, "# HELP tkd_build_info Build metadata; the metric is always 1, the labels carry the information.\n")
	fmt.Fprintf(w, "# TYPE tkd_build_info gauge\n")
	fmt.Fprintf(w, "tkd_build_info{version=%q,go=%q,gomaxprocs=\"%d\"} 1\n",
		buildVersion(), runtime.Version(), runtime.GOMAXPROCS(0))

	fmt.Fprintf(w, "# HELP tkd_datasets Number of datasets resident in the registry.\n")
	fmt.Fprintf(w, "# TYPE tkd_datasets gauge\n")
	fmt.Fprintf(w, "tkd_datasets %d\n", len(entries))

	s.stages.write(w)

	capacity, inflight, waits := s.adm.snapshot()
	fmt.Fprintf(w, "# HELP tkd_admission_worker_capacity Total worker goroutines the admission controller allows in flight.\n")
	fmt.Fprintf(w, "# TYPE tkd_admission_worker_capacity gauge\n")
	fmt.Fprintf(w, "tkd_admission_worker_capacity %d\n", capacity)
	fmt.Fprintf(w, "# HELP tkd_admission_inflight_workers Worker goroutines currently admitted.\n")
	fmt.Fprintf(w, "# TYPE tkd_admission_inflight_workers gauge\n")
	fmt.Fprintf(w, "tkd_admission_inflight_workers %d\n", inflight)
	fmt.Fprintf(w, "# HELP tkd_admission_waits_total Query admissions that had to queue for worker slots.\n")
	fmt.Fprintf(w, "# TYPE tkd_admission_waits_total counter\n")
	fmt.Fprintf(w, "tkd_admission_waits_total %d\n", waits)

	fmt.Fprintf(w, "# HELP tkd_dataset_epoch Epoch counter of the resident dataset; advances on every reload/swap.\n")
	fmt.Fprintf(w, "# TYPE tkd_dataset_epoch gauge\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_dataset_epoch{dataset=%q} %d\n", e.name, e.ds.Epoch())
	}
	fmt.Fprintf(w, "# HELP tkd_dataset_reloads_total Zero-downtime reloads served, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_dataset_reloads_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_dataset_reloads_total{dataset=%q} %d\n", e.name, e.met.reloads.Load())
	}
	fmt.Fprintf(w, "# HELP tkd_dataset_evictions_total Datasets evicted from the registry since boot.\n")
	fmt.Fprintf(w, "# TYPE tkd_dataset_evictions_total counter\n")
	fmt.Fprintf(w, "tkd_dataset_evictions_total %d\n", s.life.evictions.Load())
	fmt.Fprintf(w, "# HELP tkd_index_warm_loads_total Binned indexes restored from the persisted-index cache (rebuild skipped).\n")
	fmt.Fprintf(w, "# TYPE tkd_index_warm_loads_total counter\n")
	fmt.Fprintf(w, "tkd_index_warm_loads_total %d\n", s.life.indexWarmLoads.Load())
	fmt.Fprintf(w, "# HELP tkd_index_builds_total Binned indexes built from scratch.\n")
	fmt.Fprintf(w, "# TYPE tkd_index_builds_total counter\n")
	fmt.Fprintf(w, "tkd_index_builds_total %d\n", s.life.indexBuilds.Load())
	fmt.Fprintf(w, "# HELP tkd_index_cache_errors_total Persisted-index cache files that failed to read or write (each degraded to a rebuild).\n")
	fmt.Fprintf(w, "# TYPE tkd_index_cache_errors_total counter\n")
	fmt.Fprintf(w, "tkd_index_cache_errors_total %d\n", s.life.indexCacheErrors.Load())
	fmt.Fprintf(w, "# HELP tkd_epoch_delta_ships_total Epoch-stream requests answered with a rows-since delta instead of the full stream.\n")
	fmt.Fprintf(w, "# TYPE tkd_epoch_delta_ships_total counter\n")
	fmt.Fprintf(w, "tkd_epoch_delta_ships_total %d\n", s.life.deltaShips.Load())
	fmt.Fprintf(w, "# HELP tkd_epoch_delta_ship_bytes_total Bytes those delta bodies put on the wire.\n")
	fmt.Fprintf(w, "# TYPE tkd_epoch_delta_ship_bytes_total counter\n")
	fmt.Fprintf(w, "tkd_epoch_delta_ship_bytes_total %d\n", s.life.deltaShipBytes.Load())

	fmt.Fprintf(w, "# HELP tkd_standing_subscribers Standing-query subscribers connected right now.\n")
	fmt.Fprintf(w, "# TYPE tkd_standing_subscribers gauge\n")
	fmt.Fprintf(w, "tkd_standing_subscribers %d\n", s.standing.subscribers.Load())
	fmt.Fprintf(w, "# HELP tkd_standing_evals_total Standing-query engine re-evaluations actually run.\n")
	fmt.Fprintf(w, "# TYPE tkd_standing_evals_total counter\n")
	fmt.Fprintf(w, "tkd_standing_evals_total %d\n", s.standing.evals.Load())
	fmt.Fprintf(w, "# HELP tkd_standing_tau_skips_total Standing-query re-evaluations skipped because the tau-check proved the appended rows could not change the answer.\n")
	fmt.Fprintf(w, "# TYPE tkd_standing_tau_skips_total counter\n")
	fmt.Fprintf(w, "tkd_standing_tau_skips_total %d\n", s.standing.tauSkips.Load())
	fmt.Fprintf(w, "# HELP tkd_standing_events_total Standing-query answer changes broadcast to subscribers.\n")
	fmt.Fprintf(w, "# TYPE tkd_standing_events_total counter\n")
	fmt.Fprintf(w, "tkd_standing_events_total %d\n", s.standing.events.Load())

	// Durable-ingest WAL counters, present only for WAL-backed datasets.
	var walEntries []*entry
	for _, e := range entries {
		if e.ing != nil {
			walEntries = append(walEntries, e)
		}
	}
	if len(walEntries) > 0 {
		fmt.Fprintf(w, "# HELP tkd_wal_appends_total Row records appended to the ingest WAL since boot, by dataset.\n")
		fmt.Fprintf(w, "# TYPE tkd_wal_appends_total counter\n")
		for _, e := range walEntries {
			fmt.Fprintf(w, "tkd_wal_appends_total{dataset=%q} %d\n", e.name, e.ing.log.Appends())
		}
		fmt.Fprintf(w, "# HELP tkd_wal_fsyncs_total Fsyncs issued by the ingest WAL since boot, by dataset.\n")
		fmt.Fprintf(w, "# TYPE tkd_wal_fsyncs_total counter\n")
		for _, e := range walEntries {
			fmt.Fprintf(w, "tkd_wal_fsyncs_total{dataset=%q} %d\n", e.name, e.ing.log.Fsyncs())
		}
		fmt.Fprintf(w, "# HELP tkd_wal_replayed_rows_total Acked rows crash recovery replayed from the WAL at startup, by dataset.\n")
		fmt.Fprintf(w, "# TYPE tkd_wal_replayed_rows_total counter\n")
		for _, e := range walEntries {
			fmt.Fprintf(w, "tkd_wal_replayed_rows_total{dataset=%q} %d\n", e.name, e.ing.replayed)
		}
		fmt.Fprintf(w, "# HELP tkd_wal_lag_rows Rows logged (and acked) but not yet folded into a published epoch, by dataset — what a crash right now would replay.\n")
		fmt.Fprintf(w, "# TYPE tkd_wal_lag_rows gauge\n")
		for _, e := range walEntries {
			fmt.Fprintf(w, "tkd_wal_lag_rows{dataset=%q} %d\n", e.name, e.ing.lag())
		}
		fmt.Fprintf(w, "# HELP tkd_ingest_publishes_total Ingest publishes since boot, by dataset and mode: delta patched the previous epoch's index in place, rebuild built it from scratch.\n")
		fmt.Fprintf(w, "# TYPE tkd_ingest_publishes_total counter\n")
		for _, e := range walEntries {
			fmt.Fprintf(w, "tkd_ingest_publishes_total{dataset=%q,mode=\"delta\"} %d\n", e.name, e.ing.deltaPublishes.Load())
			fmt.Fprintf(w, "tkd_ingest_publishes_total{dataset=%q,mode=\"rebuild\"} %d\n", e.name, e.ing.rebuildPublishes.Load())
		}
	}

	// Follower replication counters, present only in follower mode.
	if s.fol != nil {
		fmt.Fprintf(w, "# HELP tkd_follower_syncs_total Leader epochs imported and published by the follower sync loop.\n")
		fmt.Fprintf(w, "# TYPE tkd_follower_syncs_total counter\n")
		fmt.Fprintf(w, "tkd_follower_syncs_total %d\n", s.fol.syncs.Load())
		fmt.Fprintf(w, "# HELP tkd_follower_sync_errors_total Failed leader poll, fetch or import attempts.\n")
		fmt.Fprintf(w, "# TYPE tkd_follower_sync_errors_total counter\n")
		fmt.Fprintf(w, "tkd_follower_sync_errors_total %d\n", s.fol.syncErrors.Load())
		fmt.Fprintf(w, "# HELP tkd_follower_delta_syncs_total Leader epochs applied from a rows-since delta stream (a subset of tkd_follower_syncs_total).\n")
		fmt.Fprintf(w, "# TYPE tkd_follower_delta_syncs_total counter\n")
		fmt.Fprintf(w, "tkd_follower_delta_syncs_total %d\n", s.fol.deltaSyncs.Load())
		fmt.Fprintf(w, "# HELP tkd_follower_epoch_lag Leader epochs observed but not yet applied, by dataset (0 = converged).\n")
		fmt.Fprintf(w, "# TYPE tkd_follower_epoch_lag gauge\n")
		for _, e := range entries {
			if !e.followed.Load() {
				continue
			}
			seen, applied := e.leaderSeen.Load(), e.leaderEpoch.Load()
			var lag uint64
			if seen > applied {
				lag = seen - applied
			}
			fmt.Fprintf(w, "tkd_follower_epoch_lag{dataset=%q} %d\n", e.name, lag)
		}
	}

	fmt.Fprintf(w, "# HELP tkd_queries_total Queries served, by dataset and algorithm.\n")
	fmt.Fprintf(w, "# TYPE tkd_queries_total counter\n")
	for _, e := range entries {
		for i, alg := range core.Algorithms {
			if n := e.met.queries[i].Load(); n > 0 {
				fmt.Fprintf(w, "tkd_queries_total{dataset=%q,algorithm=%q} %d\n", e.name, alg, n)
			}
		}
	}
	fmt.Fprintf(w, "# HELP tkd_query_errors_total Queries that failed, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_query_errors_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_query_errors_total{dataset=%q} %d\n", e.name, e.met.errors.Load())
	}
	fmt.Fprintf(w, "# HELP tkd_query_deadline_exceeded_total Queries that outran their deadline (answered 504), by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_query_deadline_exceeded_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_query_deadline_exceeded_total{dataset=%q} %d\n", e.name, e.met.deadlineExceeded.Load())
	}

	fmt.Fprintf(w, "# HELP tkd_batches_total Scheduling windows the batch scheduler served, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_batches_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_batches_total{dataset=%q} %d\n", e.name, e.met.batches.Load())
	}
	fmt.Fprintf(w, "# HELP tkd_coalesced_queries_total Queries answered by sharing an identical in-window query's execution.\n")
	fmt.Fprintf(w, "# TYPE tkd_coalesced_queries_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_coalesced_queries_total{dataset=%q} %d\n", e.name, e.met.coalesced.Load())
	}

	fmt.Fprintf(w, "# HELP tkd_query_latency_seconds Query latency histogram, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_query_latency_seconds histogram\n")
	for _, e := range entries {
		e.met.latency.write(w, "tkd_query_latency_seconds", e.name)
	}

	// Per-query work counters (the paper's pruning heuristics), aggregated.
	fmt.Fprintf(w, "# HELP tkd_pruned_objects_total Objects pruned before exact scoring, by dataset and heuristic.\n")
	fmt.Fprintf(w, "# TYPE tkd_pruned_objects_total counter\n")
	for _, e := range entries {
		st := e.met.aggStats()
		fmt.Fprintf(w, "tkd_pruned_objects_total{dataset=%q,heuristic=\"h1\"} %d\n", e.name, st.PrunedH1)
		fmt.Fprintf(w, "tkd_pruned_objects_total{dataset=%q,heuristic=\"h2\"} %d\n", e.name, st.PrunedH2)
		fmt.Fprintf(w, "tkd_pruned_objects_total{dataset=%q,heuristic=\"h3\"} %d\n", e.name, st.PrunedH3)
		fmt.Fprintf(w, "tkd_pruned_objects_total{dataset=%q,heuristic=\"skyband\"} %d\n", e.name, st.PrunedSkyband)
	}
	fmt.Fprintf(w, "# HELP tkd_scored_objects_total Exact score computations, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_scored_objects_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_scored_objects_total{dataset=%q} %d\n", e.name, e.met.aggStats().Scored)
	}
	fmt.Fprintf(w, "# HELP tkd_comparisons_total Value-level dominance comparisons (BIG/IBIG: Q-P rim members refined; G(o) is counted by popcount), by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_comparisons_total counter\n")
	for _, e := range entries {
		fmt.Fprintf(w, "tkd_comparisons_total{dataset=%q} %d\n", e.name, e.met.aggStats().Comparisons)
	}

	// Decompressed-column cache and representation counters: one snapshot
	// per dataset for every family below, so ratios like native+fallback vs
	// compressed stay internally consistent within a single scrape.
	cacheStats := make([]tkd.CacheStats, len(entries))
	for i, e := range entries {
		cacheStats[i] = e.ds.CacheStats()
	}
	fmt.Fprintf(w, "# HELP tkd_cache_hits_total Decompressed-column cache hits, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_cache_hits_total counter\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_cache_hits_total{dataset=%q} %d\n", e.name, cacheStats[i].Hits)
	}
	fmt.Fprintf(w, "# HELP tkd_cache_misses_total Decompressed-column cache misses (each pays one decompression), by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_cache_misses_total counter\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_cache_misses_total{dataset=%q} %d\n", e.name, cacheStats[i].Misses)
	}
	fmt.Fprintf(w, "# HELP tkd_cache_evictions_total Columns evicted by the CLOCK policy, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_cache_evictions_total counter\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_cache_evictions_total{dataset=%q} %d\n", e.name, cacheStats[i].Evicted)
	}
	fmt.Fprintf(w, "# HELP tkd_cache_resident_bytes Decompressed columns currently resident, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_cache_resident_bytes gauge\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_cache_resident_bytes{dataset=%q} %d\n", e.name, cacheStats[i].Bytes)
	}
	fmt.Fprintf(w, "# HELP tkd_cache_budget_bytes Configured decompressed-column cache bound, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_cache_budget_bytes gauge\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_cache_budget_bytes{dataset=%q} %d\n", e.name, cacheStats[i].Budget)
	}

	// Column representation traffic: which physical form served each column
	// on the query path, and how compressed columns were executed.
	fmt.Fprintf(w, "# HELP tkd_columns_served_total Index columns consumed by queries, by dataset and physical representation.\n")
	fmt.Fprintf(w, "# TYPE tkd_columns_served_total counter\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_columns_served_total{dataset=%q,repr=\"dense\"} %d\n", e.name, cacheStats[i].DenseCols)
		fmt.Fprintf(w, "tkd_columns_served_total{dataset=%q,repr=\"compressed\"} %d\n", e.name, cacheStats[i].CompressedCols)
		fmt.Fprintf(w, "tkd_columns_served_total{dataset=%q,repr=\"sparse\"} %d\n", e.name, cacheStats[i].SparseCols)
	}
	fmt.Fprintf(w, "# HELP tkd_kernel_native_hits_total Compressed columns served by the run-native CONCISE kernels, by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_kernel_native_hits_total counter\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_kernel_native_hits_total{dataset=%q} %d\n", e.name, cacheStats[i].NativeKernel)
	}
	fmt.Fprintf(w, "# HELP tkd_kernel_decompress_fallbacks_total Compressed columns that fell back to a dense materialization (cache or scratch), by dataset.\n")
	fmt.Fprintf(w, "# TYPE tkd_kernel_decompress_fallbacks_total counter\n")
	for i, e := range entries {
		fmt.Fprintf(w, "tkd_kernel_decompress_fallbacks_total{dataset=%q} %d\n", e.name, cacheStats[i].Fallback)
	}

	// Scatter-gather counters, for the datasets served sharded.
	type shardedEntry struct {
		name     string
		n        int
		m        tkd.ShardMetrics
		replicas [][]tkd.BreakerState
	}
	var sharded []shardedEntry
	for _, e := range entries {
		if n := e.ds.Shards(); n > 0 { // the shard families exist only for sharded datasets
			sharded = append(sharded, shardedEntry{
				name:     e.name,
				n:        n,
				m:        e.ds.Metrics(),
				replicas: e.ds.ReplicaStates(),
			})
		}
	}
	if len(sharded) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP tkd_dataset_shards Row-range shards the dataset is split into.\n")
	fmt.Fprintf(w, "# TYPE tkd_dataset_shards gauge\n")
	for _, se := range sharded {
		fmt.Fprintf(w, "tkd_dataset_shards{dataset=%q} %d\n", se.name, se.n)
	}
	fmt.Fprintf(w, "# HELP tkd_shard_fanout_total Scatter calls fanned out to shards (one per shard per phase per window).\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_fanout_total counter\n")
	for _, se := range sharded {
		fmt.Fprintf(w, "tkd_shard_fanout_total{dataset=%q} %d\n", se.name, se.m.Fanout)
	}
	fmt.Fprintf(w, "# HELP tkd_shard_tau_pushdowns_total Candidates pruned across shards by the pushed-down global tau (the cross-shard Heuristic 2).\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_tau_pushdowns_total counter\n")
	for _, se := range sharded {
		fmt.Fprintf(w, "tkd_shard_tau_pushdowns_total{dataset=%q} %d\n", se.name, se.m.TauPushdowns)
	}
	fmt.Fprintf(w, "# HELP tkd_shard_retries_total Scatter calls re-issued to another replica after a retryable failure.\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_retries_total counter\n")
	for _, se := range sharded {
		fmt.Fprintf(w, "tkd_shard_retries_total{dataset=%q} %d\n", se.name, se.m.Retries)
	}
	fmt.Fprintf(w, "# HELP tkd_shard_hedges_total Duplicate scatter calls fired at a second replica to cut tail latency.\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_hedges_total counter\n")
	for _, se := range sharded {
		fmt.Fprintf(w, "tkd_shard_hedges_total{dataset=%q} %d\n", se.name, se.m.Hedges)
	}
	fmt.Fprintf(w, "# HELP tkd_shard_degraded_queries_total Queries answered in allow_partial degraded mode (exact over the live row-ranges only).\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_degraded_queries_total counter\n")
	for _, se := range sharded {
		fmt.Fprintf(w, "tkd_shard_degraded_queries_total{dataset=%q} %d\n", se.name, se.m.Degraded)
	}
	fmt.Fprintf(w, "# HELP tkd_shard_breaker_state Replica circuit-breaker position: 0 closed, 1 open, 2 half-open.\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_breaker_state gauge\n")
	for _, se := range sharded {
		for sh, states := range se.replicas {
			for r, st := range states {
				fmt.Fprintf(w, "tkd_shard_breaker_state{dataset=%q,shard=\"%d\",replica=\"%d\"} %d\n", se.name, sh, r, int(st))
			}
		}
	}
	fmt.Fprintf(w, "# HELP tkd_shard_replicas_healthy Replicas currently admitting calls (breaker not open), by shard.\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_replicas_healthy gauge\n")
	for _, se := range sharded {
		for sh, states := range se.replicas {
			if states == nil {
				continue // in-process shard: no replica set
			}
			healthy := 0
			for _, st := range states {
				if st != shard.BreakerOpen {
					healthy++
				}
			}
			fmt.Fprintf(w, "tkd_shard_replicas_healthy{dataset=%q,shard=\"%d\"} %d\n", se.name, sh, healthy)
		}
	}
	fmt.Fprintf(w, "# HELP tkd_shard_latency_seconds Per-shard scatter-call latency histogram.\n")
	fmt.Fprintf(w, "# TYPE tkd_shard_latency_seconds histogram\n")
	for _, se := range sharded {
		for sh, lat := range se.m.PerShard {
			cum := int64(0)
			for b, ub := range shard.LatencyBuckets {
				cum += lat.Buckets[b]
				fmt.Fprintf(w, "tkd_shard_latency_seconds_bucket{dataset=%q,shard=\"%d\",le=%q} %d\n", se.name, sh, formatBound(ub), cum)
			}
			fmt.Fprintf(w, "tkd_shard_latency_seconds_bucket{dataset=%q,shard=\"%d\",le=\"+Inf\"} %d\n", se.name, sh, lat.Count)
			fmt.Fprintf(w, "tkd_shard_latency_seconds_sum{dataset=%q,shard=\"%d\"} %g\n", se.name, sh, lat.SumSeconds)
			fmt.Fprintf(w, "tkd_shard_latency_seconds_count{dataset=%q,shard=\"%d\"} %d\n", se.name, sh, lat.Count)
		}
	}
}
