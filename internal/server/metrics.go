package server

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/tkd"
)

// queryStages enumerates the tkd_query_stage_seconds labels in exposition
// order. Each stage is fed from the trace spans of the same name — queue is
// the scheduler wait, engine the algorithm run, scatter/gather the two
// fan-out phases of the peer plan, retry the backoff waits between replica attempts, wal the
// write-ahead log time of ingest appends and publish checkpoints, publish
// the epoch-fold time of the ingest publisher (index patch or rebuild).
var queryStages = [...]string{"queue", "engine", "scatter", "gather", "retry", "wal", "publish"}

// stageMetrics breaks query time down by pipeline stage, server-wide.
type stageMetrics struct {
	hists [len(queryStages)]obs.Histogram
}

// observeTrace folds one completed trace's span durations into the stage
// histograms. Coalesced replies observe only their own queue wait: their
// execution spans are shared with (and already observed by) the hosting
// query, so counting it again would double-book engine and shard time.
func (m *stageMetrics) observeTrace(tr *obs.Trace, coalesced bool) {
	tr.Walk(func(sp *obs.Span) {
		name := sp.Name()
		if coalesced && name != "queue" {
			return
		}
		for i, stage := range queryStages {
			if name == stage {
				m.hists[i].Observe(sp.Duration())
				return
			}
		}
	})
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

// datasetScrape is everything a scrape reads of one dataset, taken once
// before any family is written so that the samples of one scrape agree: the
// pruning counters under one lock, the shard counters from one Metrics.
type datasetScrape struct {
	e        *entry
	label    string // dataset="<name>"
	stats    core.Stats
	shards   int // 0 = unsharded: the shard families carry no sample for it
	shard    tkd.ShardMetrics
	replicas [][]tkd.BreakerState
}

// expo writes one scrape in Prometheus text exposition format.
type expo struct {
	w    io.Writer
	s    *Server
	ds   []datasetScrape
	name string // the family being written
}

// family is one row of the /metrics table. A row earns its place with a
// README runbook sentence or a test assertion that reads it (DESIGN.md §3);
// TestMetricsDocumented holds the README glossary to the table and
// TestMetricsExposition holds the names and TYPEs to a golden list.
type family struct {
	name, typ, help string
	collect         func(x *expo)
}

func (x *expo) begin(f *family) {
	x.name = f.name
	fmt.Fprintf(x.w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
}

func (x *expo) sample(labels string, v int64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(x.w, "%s%s %d\n", x.name, labels, v)
}

func (x *expo) hist(labels string, h obs.HistogramSnapshot) {
	cum := int64(0)
	for i, ub := range obs.LatencyBuckets {
		cum += h.Buckets[i]
		fmt.Fprintf(x.w, "%s_bucket{%s,le=\"%g\"} %d\n", x.name, labels, ub, cum)
	}
	fmt.Fprintf(x.w, "%s_bucket{%s,le=\"+Inf\"} %d\n", x.name, labels, h.Count)
	fmt.Fprintf(x.w, "%s_sum{%s} %g\n", x.name, labels, h.SumSeconds)
	fmt.Fprintf(x.w, "%s_count{%s} %d\n", x.name, labels, h.Count)
}

// whenFollowing is a family of one unlabelled sample, in follower mode only.
func whenFollowing(v func(f *follower) int64) func(*expo) {
	return func(x *expo) {
		if x.s.fol != nil {
			x.sample("", v(x.s.fol))
		}
	}
}

// each is a family of one {dataset} sample per resident dataset keep admits.
func each(keep func(*datasetScrape) bool, v func(d *datasetScrape) int64) func(*expo) {
	return func(x *expo) {
		for i := range x.ds {
			if d := &x.ds[i]; keep(d) {
				x.sample(d.label, v(d))
			}
		}
	}
}

func resident(*datasetScrape) bool    { return true }
func ingesting(d *datasetScrape) bool { return d.e.ing != nil }
func followed(d *datasetScrape) bool  { return d.e.followed.Load() }
func sharded(d *datasetScrape) bool   { return d.shards > 0 }

// writeMetrics renders the whole server state in Prometheus text exposition
// format (also human-readable enough to double as the expvar-style dump).
func (s *Server) writeMetrics(w io.Writer) {
	entries := s.reg.list()
	x := &expo{w: w, s: s, ds: make([]datasetScrape, 0, len(entries))}
	for _, e := range entries {
		d := datasetScrape{e: e, label: fmt.Sprintf("dataset=%q", e.name), shards: e.ds.Shards()}
		e.met.mu.Lock()
		d.stats = e.met.agg
		e.met.mu.Unlock()
		if d.shards > 0 {
			d.shard, d.replicas = e.ds.Metrics(), e.ds.ReplicaStates()
		}
		x.ds = append(x.ds, d)
	}
	for i := range metricFamilies {
		x.begin(&metricFamilies[i])
		metricFamilies[i].collect(x)
	}
}

// metricFamilies is the whole /metrics surface, in exposition order.
var metricFamilies = []family{
	{"tkd_build_info", "gauge", "Build metadata; the metric is always 1, the labels carry the information.", func(x *expo) {
		x.sample(fmt.Sprintf("version=%q,go=%q,gomaxprocs=\"%d\"", buildVersion(), runtime.Version(), runtime.GOMAXPROCS(0)), 1)
	}},
	{"tkd_query_stage_seconds", "histogram", "Query time by pipeline stage: scheduler queue wait, engine execution, peer shards' scatter (bounds) and gather (scores) phases, retry backoff waits, WAL write/fsync time, and ingest publish (epoch fold) time.", func(x *expo) {
		for i, stage := range queryStages {
			x.hist(fmt.Sprintf("stage=%q", stage), x.s.stages.hists[i].Snapshot())
		}
	}},
	{"tkd_dataset_epoch", "gauge", "Epoch counter of the resident dataset; advances on every reload/swap.", each(resident, func(d *datasetScrape) int64 { return int64(d.e.ds.Epoch()) })},
	{"tkd_dataset_reloads_total", "counter", "Zero-downtime reloads served, by dataset.", each(resident, func(d *datasetScrape) int64 { return d.e.met.reloads.Load() })},
	{"tkd_dataset_evictions_total", "counter", "Datasets evicted from the registry since boot.", func(x *expo) { x.sample("", x.s.life.evictions.Load()) }},
	{"tkd_index_warm_loads_total", "counter", "Binned indexes restored from the persisted-index cache (rebuild skipped).", func(x *expo) { x.sample("", x.s.life.indexWarmLoads.Load()) }},
	{"tkd_index_builds_total", "counter", "Binned indexes built from scratch.", func(x *expo) { x.sample("", x.s.life.indexBuilds.Load()) }},
	{"tkd_index_cache_errors_total", "counter", "Persisted-index cache files that failed to read or write (each degraded to a rebuild).", func(x *expo) { x.sample("", x.s.life.indexCacheErrors.Load()) }},
	{"tkd_epoch_delta_ships_total", "counter", "Epoch-stream requests answered with a rows-since delta instead of the full stream.", func(x *expo) { x.sample("", x.s.life.deltaShips.Load()) }},
	{"tkd_epoch_delta_ship_bytes_total", "counter", "Bytes those delta bodies put on the wire.", func(x *expo) { x.sample("", x.s.life.deltaShipBytes.Load()) }},
	{"tkd_standing_subscribers", "gauge", "Standing-query subscribers connected right now.", func(x *expo) { x.sample("", x.s.standing.subscribers.Load()) }},
	{"tkd_standing_evals_total", "counter", "Standing-query evaluations submitted: at most one per standing key per publish, and one when a key gets its first subscriber.", func(x *expo) { x.sample("", x.s.standing.evals.Load()) }},
	{"tkd_wal_appends_total", "counter", "Row records appended to the ingest WAL since boot, by dataset.", each(ingesting, func(d *datasetScrape) int64 { return d.e.ing.log.Appends() })},
	{"tkd_wal_fsyncs_total", "counter", "Fsyncs issued by the ingest WAL since boot, by dataset.", each(ingesting, func(d *datasetScrape) int64 { return d.e.ing.log.Fsyncs() })},
	{"tkd_follower_syncs_total", "counter", "Leader epochs imported and published by the follower sync loop.", whenFollowing(func(f *follower) int64 { return f.syncs.Load() })},
	{"tkd_follower_sync_errors_total", "counter", "Failed leader poll, fetch or import attempts.", whenFollowing(func(f *follower) int64 { return f.syncErrors.Load() })},
	{"tkd_follower_delta_syncs_total", "counter", "Leader epochs applied from a rows-since delta stream (a subset of tkd_follower_syncs_total).", whenFollowing(func(f *follower) int64 { return f.deltaSyncs.Load() })},
	{"tkd_follower_epoch_lag", "gauge", "Leader epochs observed but not yet applied, by dataset (0 = converged).", each(followed, func(d *datasetScrape) int64 {
		if seen, applied := d.e.leaderSeen.Load(), d.e.leaderEpoch.Load(); seen > applied {
			return int64(seen - applied)
		}
		return 0
	})},
	{"tkd_queries_total", "counter", "Queries served, standing evaluations included, by dataset.", each(resident, func(d *datasetScrape) int64 { return d.e.met.queries.Load() })},
	{"tkd_query_errors_total", "counter", "Queries that failed, by dataset.", each(resident, func(d *datasetScrape) int64 { return d.e.met.errors.Load() })},
	{"tkd_query_deadline_exceeded_total", "counter", "Queries that outran their deadline (answered 504), by dataset.", each(resident, func(d *datasetScrape) int64 { return d.e.met.deadlineExceeded.Load() })},
	{"tkd_coalesced_queries_total", "counter", "Queries answered by joining an identical query still waiting for its worker slots.", each(resident, func(d *datasetScrape) int64 { return d.e.met.coalesced.Load() })},
	{"tkd_pruned_objects_total", "counter", "Objects pruned before exact scoring, by dataset and heuristic.", func(x *expo) {
		for _, d := range x.ds {
			x.sample(d.label+`,heuristic="h1"`, int64(d.stats.PrunedH1))
			x.sample(d.label+`,heuristic="h2"`, int64(d.stats.PrunedH2))
			x.sample(d.label+`,heuristic="h3"`, int64(d.stats.PrunedH3))
			x.sample(d.label+`,heuristic="skyband"`, int64(d.stats.PrunedSkyband))
		}
	}},
	{"tkd_dataset_shards", "gauge", "Row-range shards the dataset is split into.", each(sharded, func(d *datasetScrape) int64 { return int64(d.shards) })},
	{"tkd_shard_fanout_total", "counter", "Scatter calls fanned out to peer shards (one per shard per phase per window); in-process shards make none.", each(sharded, func(d *datasetScrape) int64 { return d.shard.Fanout })},
	{"tkd_shard_tau_pushdowns_total", "counter", "Candidates pruned across shards by the global tau pushed down to each shard (the cross-shard Heuristic 2), on either plan.", each(sharded, func(d *datasetScrape) int64 { return d.shard.TauPushdowns })},
	{"tkd_shard_retries_total", "counter", "Scatter calls re-issued to another replica after a retryable failure.", each(sharded, func(d *datasetScrape) int64 { return d.shard.Retries })},
	{"tkd_shard_degraded_queries_total", "counter", "Queries answered in allow_partial degraded mode (exact over the live row-ranges only).", each(sharded, func(d *datasetScrape) int64 { return d.shard.Degraded })},
	{"tkd_shard_breaker_state", "gauge", "Replica circuit-breaker position: 0 closed, 1 open, 2 half-open.", func(x *expo) {
		for _, d := range x.ds {
			for sh, states := range d.replicas {
				for r, st := range states {
					x.sample(fmt.Sprintf("%s,shard=\"%d\",replica=\"%d\"", d.label, sh, r), int64(st))
				}
			}
		}
	}},
	{"tkd_shard_replicas_healthy", "gauge", "Replicas currently admitting calls (breaker not open), by shard.", func(x *expo) {
		for _, d := range x.ds {
			for sh, states := range d.replicas {
				if states == nil {
					continue // in-process shard: no replica set
				}
				healthy := int64(0)
				for _, st := range states {
					if st != shard.BreakerOpen {
						healthy++
					}
				}
				x.sample(fmt.Sprintf("%s,shard=\"%d\"", d.label, sh), healthy)
			}
		}
	}},
	{"tkd_shard_latency_seconds", "histogram", "Per-shard peer scatter-call latency histogram; in-process shards record none.", func(x *expo) {
		for _, d := range x.ds {
			for sh, lat := range d.shard.PerShard {
				x.hist(fmt.Sprintf("%s,shard=\"%d\"", d.label, sh), lat)
			}
		}
	}},
}
