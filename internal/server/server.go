// Package server is the TKD serving subsystem: a live registry of named
// resident datasets (each loaded once, indexed once, queried from warm
// indexes ever after) behind an HTTP/JSON API with a zero-downtime dataset
// lifecycle.
//
// Endpoints:
//
//	POST   /v1/datasets/{name}/query  — {"k"} → ranked answer (IBIG, the one plan served)
//	GET    /v1/datasets               — resident datasets and their shapes
//	POST   /v1/datasets               — {"name","path","negate"} registers a CSV at runtime
//	POST   /v1/datasets/{name}/reload — rebuild from the source file, swap epochs, zero downtime
//	POST   /v1/datasets/{name}/append — durable row ingest through the WAL (requires Config.WALDir)
//	DELETE /v1/datasets/{name}        — evict: drain the scheduler, remove the dataset and its WAL
//	GET    /healthz                   — liveness
//	GET    /metrics                   — Prometheus text: the family table of metrics.go
//
// A per-dataset scheduler (see scheduler.go) runs each query on the goroutine
// that submits it: distinct queries run side by side over the warm artifacts,
// an identical query that arrives while its twin still waits for worker slots
// shares the twin's execution, and a server-wide FIFO admission controller
// (admission.go) sizes and gates each query's worker fan-out. The paper's determinism guarantee (WithWorkers never changes an
// answer) is what makes both the dedup and the admission grant transparent
// to clients.
//
// Lifecycle: reloads build the replacement dataset and its index off to the
// side, then publish it with tkd's epoch/RCU pointer swap — queries in
// flight finish on the old epoch, new queries see the new one, and no
// request ever fails because a reload happened. With Config.IndexDir set,
// built indexes persist to disk keyed by a content fingerprint, so a warm
// restart (or a reload of an unchanged file) skips the paper's dominant
// preprocessing cost entirely.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/tkd"
)

// Config tunes the server.
type Config struct {
	// MaxWorkers caps the total worker goroutines in flight across all
	// queries (the admission controller's capacity); <= 0 selects GOMAXPROCS.
	MaxWorkers int
	// IndexDir enables the persisted-index cache: built binned indexes are
	// written here (keyed by dataset name, validated by the row count and
	// content fingerprint in the file) and warm starts load them instead of
	// rebuilding. A load writes the file after the dataset starts serving, in
	// the background; Shutdown, Close and an evict wait for it, and a crash
	// before it lands costs the next boot a rebuild, never a wrong index. An
	// ingesting dataset's file is a checkpoint, rewritten when the rows have
	// grown by an eighth and at a graceful shutdown; a restart patches the
	// rows logged since on top of it. Empty disables persistence. Sharded
	// datasets persist one file per shard, keyed by the shard's slice
	// fingerprint, so a warm restart skips rebuilds shard by shard.
	IndexDir string
	// Shards attaches a shard topology to every registered dataset: that
	// many row-range shards behind a scatter-gather coordinator (see
	// tkd.Shard); <= 1 serves unsharded. It is the same dataset type and the
	// same lifecycle either way — only the execution plan of a query
	// differs — and answers are byte-identical.
	Shards int
	// ShardPeers serves the shards from remote tkdserver peers instead of
	// in-process: shard i goes to ShardPeers[i % len(ShardPeers)]. Each
	// entry is one shard's replica set — a single base URL or several
	// separated by '|' — and every peer must have the same datasets
	// registered under the same names. Ignored when Shards <= 1.
	ShardPeers []string
	// ShardClient overrides the HTTP client used to reach shard peers
	// (TestChaosSoak and TestServerQueryDeadline inject a fault transport
	// here); nil builds one from PeerTimeout.
	ShardClient *http.Client
	// ShardPolicy overrides the per-shard fault-tolerance policy (retries,
	// backoff, hedging, breakers); nil selects tkd.DefaultShardPolicy.
	ShardPolicy *tkd.ShardPolicy
	// PeerTimeout bounds one shard-peer round trip when ShardClient is nil;
	// <= 0 keeps the shard package default (30s).
	PeerTimeout time.Duration
	// HealthInterval starts background replica health probes at that period
	// (divergent replicas are quarantined between queries); <= 0 disables.
	HealthInterval time.Duration
	// QueryTimeout is the default per-query deadline when the request body
	// carries no timeout_millis of its own; <= 0 means no server-imposed
	// deadline.
	QueryTimeout time.Duration
	// Logger receives the server's structured logs (slow-query warnings,
	// lifecycle events); nil discards them.
	Logger *slog.Logger
	// SlowQuery is the duration past which a completed query is logged at
	// warn level with its trace ID; <= 0 disables slow-query logging. The
	// in-memory query log (GET /v1/debug/queries) is always on regardless.
	SlowQuery time.Duration
	// Follow makes this server a replication follower of the leader
	// tkdserver at the given base URL: the leader's datasets are discovered,
	// fetched over GET /v1/datasets/{name}/epoch and kept in lockstep — each
	// new leader epoch is imported, validated by fingerprint, and published
	// locally as an RCU epoch swap under the leader's epoch number. Empty
	// (the default) disables following.
	Follow string
	// FollowInterval is the leader poll period in follower mode; <= 0
	// defaults to 2s. Polls are conditional (If-fingerprint-matches answers
	// 304 with no body), so short intervals are cheap.
	FollowInterval time.Duration
	// WALDir enables durable ingest: every unsharded leader dataset gets a
	// write-ahead log under this directory and accepts POST
	// /v1/datasets/{name}/append. Startup recovery replays the log on top
	// of the source file (see ingest.go). Empty disables ingest. Ignored in
	// follower mode and when Shards > 1.
	WALDir string
	// Fsync selects when an append's WAL record is fsynced; the zero value
	// (wal.SyncAlways) is the only policy whose ack means "survives kill -9".
	Fsync wal.Policy
	// PublishInterval is the cadence at which logged rows are folded into a
	// published epoch (one index patch per batch, not per row); <= 0
	// defaults to 500ms.
	PublishInterval time.Duration
	// WALFS overrides WAL segment-file creation (TestIngestFsyncFailurePoisons
	// and TestIngestBatchWriteFailureAcksNothing inject write/fsync faults
	// here); nil uses the operating system.
	WALFS wal.FS
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

// Server is the HTTP query service. Create with New, register datasets with
// AddDataset or LoadCSVFile, then serve it (it implements http.Handler).
type Server struct {
	cfg       Config
	adm       *admission
	reg       *registry
	ixc       *indexCache // resolved once in New; nil = persistence off
	ixcErr    error       // why IndexDir could not be opened; fails registration
	writes    indexWrites // index files being written, per dataset name
	mux       *http.ServeMux
	peer      *shard.Peer
	life      lifecycleMetrics
	stages    stageMetrics
	qlog      *obs.QueryLog
	log       *slog.Logger
	fol       *follower
	standing  *standingRegistry
	draining  atomic.Bool
	done      chan struct{}
	pubWG     sync.WaitGroup // ingest publisher goroutine
	closeOnce sync.Once
}

// Route describes one entry of the public API surface.
type Route struct {
	Method  string `json:"method"`
	Pattern string `json:"pattern"`
	Summary string `json:"summary"`
}

// apiRoutes is the canonical API surface: New registers exactly these
// routes (and panics on a table/handler mismatch, so the two cannot drift),
// and the docs-conformance test holds README.md to the same table.
var apiRoutes = []Route{
	{"POST", "/v1/datasets/{name}/query", "Top-k query against the named dataset"},
	{"POST", "/v1/datasets/{name}/subscribe", "Standing top-k subscription (SSE or long-poll)"},
	{"GET", "/v1/datasets", "List resident datasets"},
	{"GET", "/v1/datasets/{name}", "Detail view of one resident dataset"},
	{"POST", "/v1/datasets", "Register a dataset from a CSV file"},
	{"POST", "/v1/datasets/{name}/reload", "Hot-swap the dataset from its source file"},
	{"DELETE", "/v1/datasets/{name}", "Evict the dataset"},
	{"POST", "/v1/datasets/{name}/append", "Append rows through the write-ahead log"},
	{"GET", "/v1/datasets/{name}/epoch", "Epoch stream for followers (full or delta)"},
	{"GET", "/v1/debug/queries", "Recent queries with their traces"},
	{"GET", "/healthz", "Liveness probe"},
	{"GET", "/metrics", "Prometheus metrics"},
	{"POST", "/v1/shard/query", "Internal shard scatter RPC"},
	{"GET", "/v1/shard/health", "Internal shard health RPC"},
}

// Routes returns the public API surface, one entry per registered route.
func Routes() []Route {
	out := make([]Route, len(apiRoutes))
	copy(out, apiRoutes)
	return out
}

// New returns an empty server.
func New(cfg Config) *Server {
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:  cfg,
		adm:  newAdmission(cfg.MaxWorkers),
		reg:  newRegistry(),
		mux:  http.NewServeMux(),
		qlog: obs.NewQueryLog(queryLogSize),
		log:  cfg.Logger,
		done: make(chan struct{}),
	}
	if s.ixc, s.ixcErr = newIndexCache(cfg.IndexDir); s.ixcErr != nil {
		s.life.indexCacheErrors.Add(1)
	}
	s.standing = newStandingRegistry()
	s.peer = shard.NewPeer(s.resolveShardData)
	s.peer.SetQueryLog(s.qlog)
	handlers := map[string]http.Handler{
		"POST /v1/datasets/{name}/query":     s.unlessDraining(s.handleDatasetQuery),
		"POST /v1/datasets/{name}/subscribe": s.unlessDraining(s.handleSubscribe),
		"GET /v1/datasets":                   http.HandlerFunc(s.handleDatasets),
		"GET /v1/datasets/{name}":            http.HandlerFunc(s.handleDatasetInfo),
		"POST /v1/datasets":                  s.unlessDraining(s.handleRegister),
		"POST /v1/datasets/{name}/reload":    s.unlessDraining(s.handleReload),
		"DELETE /v1/datasets/{name}":         http.HandlerFunc(s.handleEvict),
		"POST /v1/datasets/{name}/append":    s.unlessDraining(s.handleAppend),
		"GET /v1/datasets/{name}/epoch":      http.HandlerFunc(s.handleEpochStream),
		"GET /v1/debug/queries":              http.HandlerFunc(s.handleDebugQueries),
		"GET /healthz":                       http.HandlerFunc(s.handleHealthz),
		"GET /metrics":                       http.HandlerFunc(s.handleMetrics),
		"POST /v1/shard/query":               s.peer,
		"GET /v1/shard/health":               http.HandlerFunc(s.peer.ServeHealth),
	}
	if len(handlers) != len(apiRoutes) {
		panic("server: route table and handler map disagree")
	}
	for _, rt := range apiRoutes {
		key := rt.Method + " " + rt.Pattern
		h, ok := handlers[key]
		if !ok {
			panic("server: route without handler: " + key)
		}
		s.mux.Handle(key, h)
	}
	if cfg.Follow != "" {
		s.fol = newFollower(s, cfg.Follow, cfg.FollowInterval)
		s.fol.start()
	}
	if s.ingestEnabled() {
		s.pubWG.Add(1)
		go s.publishLoop()
	}
	return s
}

// AddDataset registers ds under name, warms it
// (persisted index when available, built otherwise — and persisted once it
// serves) and gives it a batch scheduler. Datasets registered this way have
// no source file, so /reload returns 409 for them; use LoadCSVFile or POST
// /v1/datasets for reloadable datasets. An unsharded dataset gets the
// server's shard topology attached when Config.Shards > 1; one that already
// carries a topology (tkd.Shard) is registered as-is.
func (s *Server) AddDataset(name string, ds *tkd.Dataset) error {
	_, err := s.register(name, ds, "", false, time.Now())
	return err
}

// resolveShardData backs the /v1/shard/query and /v1/shard/health peer
// endpoints: the frozen epoch data of a resident dataset plus its epoch
// counter, whether it is served unsharded or is itself a scatter-gather
// coordinator (peers slice the full data either way).
func (s *Server) resolveShardData(name string) (*data.Dataset, uint64, bool) {
	e, ok := s.reg.get(name)
	if !ok {
		return nil, 0, false
	}
	ds, epoch := e.ds.ShardData(), e.ds.Epoch()
	// A followed entry reports the leader's epoch numbering: a dataset
	// adopted into following mid-life (pre-loaded from the same CSV) has a
	// lower local counter for the very same bytes, and health probes should
	// see the fleet-wide number, not this process's publish count.
	if le := e.leaderEpoch.Load(); le > epoch {
		epoch = le
	}
	return ds, epoch, true
}

// LoadCSVFile reads a datagen-format CSV and registers it under name.
// negate flips values for larger-is-better data. The path is recorded so
// POST /v1/datasets/{name}/reload can rebuild from it.
func (s *Server) LoadCSVFile(name, path string, negate bool) error {
	start := time.Now()
	ds, err := loadCSV(path, negate)
	if err != nil {
		return err
	}
	_, err = s.register(name, ds, path, negate, start)
	return err
}

// shard attaches this server's shard topology (Config.Shards > 1) to a
// freshly loaded dataset — the first step of the one lifecycle sequence
// register, handleReload and the follower import all run: load → shard →
// warm off to the side (warmPrepare) → swap (swapIn; register has nothing
// to swap with), after which the dataset serves → persist in the background
// (persistLater). A dataset that already carries a topology is left alone.
func (s *Server) shard(name string, ds *tkd.Dataset) (*tkd.Dataset, error) {
	if s.cfg.Shards <= 1 || ds.Shards() > 0 {
		return ds, nil
	}
	opts := []tkd.ShardOption{tkd.WithShards(s.cfg.Shards)}
	if len(s.cfg.ShardPeers) > 0 {
		opts = append(opts, tkd.WithShardPeers(s.cfg.ShardPeers...))
	}
	if s.cfg.ShardClient != nil {
		opts = append(opts, tkd.WithShardClient(s.cfg.ShardClient))
	}
	if s.cfg.ShardPolicy != nil {
		opts = append(opts, tkd.WithShardPolicy(*s.cfg.ShardPolicy))
	}
	if s.cfg.PeerTimeout > 0 {
		opts = append(opts, tkd.WithShardPeerTimeout(s.cfg.PeerTimeout))
	}
	if s.cfg.HealthInterval > 0 {
		opts = append(opts, tkd.WithShardHealthChecks(s.cfg.HealthInterval))
	}
	return tkd.Shard(ds, name, opts...)
}

// register installs a dataset; warm reports whether the persisted-index
// cache supplied the index. start is when the caller began reading ds from
// its source, for the log line the load ends with (logLoad).
func (s *Server) register(name string, ds *tkd.Dataset, path string, negate bool, start time.Time) (warm bool, err error) {
	parse := time.Since(start)
	if name == "" {
		return false, fmt.Errorf("server: empty dataset name")
	}
	if ds.Len() == 0 {
		return false, fmt.Errorf("server: dataset %q is empty", name)
	}
	if s.ixcErr != nil {
		return false, s.ixcErr
	}
	// Fail the common duplicate before paying index construction; the
	// registry's add re-checks under its lock for the racing case.
	if _, ok := s.reg.get(name); ok {
		return false, fmt.Errorf("%w: %q", errDuplicate, name)
	}
	if ds, err = s.shard(name, ds); err != nil {
		return false, err
	}
	// Open the WAL and replay acked rows before warming: replay changes the
	// data (and its fingerprint), and the warm-up below checks the index
	// checkpoint against the rows as recovered — a checkpoint of a prefix
	// loads and takes the replayed tail as a patch.
	var ing *ingestState
	if ds.Shards() == 0 && s.ingestEnabled() { // sharded: appends would need a cross-shard commit protocol
		ing, err = s.openIngest(name, ds)
		if err != nil {
			return false, err
		}
	}
	warm, cold, tail := s.warmPrepare(name, ds)
	rows := ds.ShardData() // the epoch the cold parts index, before appends can move it
	if ing != nil {
		// The warm-up above published the recovered state (replayed suffix
		// included); checkpoint it so the next restart skips the replay. A
		// failed checkpoint only costs that restart a replay.
		if err := ing.sealRecovery(ds); err != nil {
			s.log.Warn("wal recovery checkpoint failed", "dataset", name, "err", err)
		}
	}
	met := &datasetMetrics{}
	e := &entry{
		name:   name,
		ds:     ds,
		met:    met,
		sch:    newScheduler(ds, s.adm, met, s.done),
		path:   path,
		negate: negate,
		ing:    ing,
	}
	if err := s.reg.add(e); err != nil {
		ds.Close()
		if ing != nil {
			ing.log.Close() // the resident entry owns the segment files
		}
		return false, err
	}
	s.logLoad("dataset loaded", name, path, ds, warm, start, parse)
	s.persistLater(e, cold, int64(ds.Len()-tail), rows)
	return warm, nil
}

// millis renders a duration for a log line.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// logLoad writes the line every load ends with — a boot or runtime register
// ("dataset loaded"), a reload or a follower's full import ("dataset
// reloaded") — with the load decomposed: parse_ms reading the source (the CSV
// file, a leader's epoch stream), fingerprint_ms folding the rows into the
// fingerprint chain (tkd.Dataset.FoldTime: 0 when nothing the load did read
// the fingerprint — a cold boot with no checkpoint or write-ahead log to
// check it against — and the fold is left to the first reader), index_ms
// building or warm-loading the serving indexes, queue_ms the MaxScore queue
// (both from tkd.Dataset.BuildTimes: index_ms is summed over the shards of a
// sharded dataset, so it can exceed the wall clock there, and queue_ms is the
// coordinator's merge of their sorted runs). seconds is the wall clock of the
// whole load, which ends when the dataset serves: the index files are written
// after it, and their own line is "index persisted" (writeIndex).
func (s *Server) logLoad(msg, name, path string, ds *tkd.Dataset, warm bool, start time.Time, parse time.Duration) {
	index, queue := ds.BuildTimes()
	s.log.Info(msg, "dataset", name, "path", path, "rows", ds.Len(), "warm", warm,
		"parse_ms", millis(parse), "fingerprint_ms", millis(ds.FoldTime()),
		"index_ms", millis(index), "queue_ms", millis(queue),
		"seconds", time.Since(start).Seconds())
}

// warmPrepare gets ds query-ready off to the side: restore every index part the cache directory holds a checkpoint of, and
// eagerly finish the IBIG serving artifacts so the first query is as fast as
// the thousandth. The value-granular BIG bitmap — the most expensive
// artifact — is never built: the server runs IBIG alone. warm reports
// whether the cache supplied every part (rebuild skipped); cold lists the
// parts it did not — built here, or shipped with an imported
// epoch — for persistLater to write once the dataset serves; tail counts the
// rows patched behind a checkpoint that was saved when the data was shorter
// (a restart over a write-ahead log: the file on disk still covers only
// Len() − tail rows). A sharded dataset has one part per in-process shard, so
// a restart (or a reload of an unchanged file) skips rebuilds shard by shard
// and a partially valid cache still saves most of the work. The files are
// read once every write queued under the name has landed — the previous
// load's, an evicted namesake's.
func (s *Server) warmPrepare(name string, ds *tkd.Dataset) (warm bool, cold []tkd.IndexPart, tail int) {
	if s.ixc != nil {
		s.writes.join(name)
		warm = true
		for _, p := range ds.IndexParts() {
			patched, ok, err := s.ixc.tryLoad(name, p)
			if err != nil {
				// A corrupt cache file is a miss, not an outage: rebuild below
				// and overwrite it. Surface the event on /metrics.
				s.life.indexCacheErrors.Add(1)
			}
			if ok {
				s.life.indexWarmLoads.Add(1)
				tail += patched
				s.log.Info("index checkpoint loaded", "dataset", name, "part", p.Suffix, "patched_rows", patched)
			} else {
				warm = false
				cold = append(cold, p)
			}
		}
	}
	before := ds.IndexBuilds()
	ds.PrepareFor(tkd.IBIG)
	s.life.indexBuilds.Add(ds.IndexBuilds() - before)
	return warm, cold, tail
}

// persistLater finishes a load once the dataset serves: it hands the parts
// the cache did not supply to a background write that e owns (indexWrites).
// rows is what the files in the cache directory cover once that write lands —
// all of the loaded rows, less the tail patched behind an older checkpoint —
// and what e.savedRows then holds; with nothing to write it holds it now.
// loaded is the data of the epoch the parts index, whose fingerprint fold the
// write pays when the load left it to the first reader.
func (s *Server) persistLater(e *entry, cold []tkd.IndexPart, rows int64, loaded *data.Dataset) {
	if s.ixc == nil {
		return
	}
	if len(cold) == 0 {
		e.savedRows.Store(rows)
		return
	}
	s.writes.start(e.name, func() { s.writeIndex(e, cold, rows, loaded) })
}

// writeIndex writes index parts of e's data to the cache directory, in
// e.name's turn, so a restart warm-loads them, then records in e.savedRows
// the rows the files cover: rows, or 0 when a part failed, so that the next
// checkpoint tries again. An error is a cold restart, not a failure of
// whatever published the index. A newer entry under the name owns the files,
// and the write is then dropped. A part's header carries the fingerprint of
// the rows it indexes, so the write folds them if nothing has yet; when they
// are a load's rows (loaded, nil otherwise) the line times that fold.
func (s *Server) writeIndex(e *entry, parts []tkd.IndexPart, rows int64, loaded *data.Dataset) {
	if cur, ok := s.reg.get(e.name); ok && cur != e {
		return
	}
	start := time.Now()
	var folded time.Duration
	if loaded != nil {
		folded = loaded.FoldTime()
	}
	var bytes int64
	for _, p := range parts {
		n, err := s.ixc.save(e.name, p)
		if err != nil {
			s.life.indexCacheErrors.Add(1)
			s.log.Warn("index persist failed", "dataset", e.name, "part", p.Suffix, "err", err)
			rows = 0
		}
		bytes += n
	}
	e.savedRows.Store(rows)
	if rows > 0 {
		attrs := []any{"dataset", e.name, "ms", millis(time.Since(start)), "bytes", bytes, "parts", len(parts)}
		if loaded != nil {
			if fold := loaded.FoldTime() - folded; fold > 0 {
				attrs = append(attrs, "fingerprint_ms", millis(fold))
			}
		}
		s.log.Info("index persisted", attrs...)
	}
}

// checkpointIndex is the one place an append-publish — the leader's fold of
// its pending rows or a follower's applied delta — meets the persisted
// index. The file is a checkpoint and the write-ahead log (or the leader's
// rows) is its delta log, so it is not rewritten per publish: only once the
// rows have grown to 9/8 of the rows it covers, or when force says this is
// the last chance (the shutdown flush). Rewriting at every eighth of growth
// keeps the bytes written over a dataset's life within 9× the final index
// (a geometric series) — O(1) amortized per appended row where the
// per-publish rewrite was O(N) — and bounds what a restart after a crash has
// to patch behind the checkpoint to a ninth of the rows. It writes in
// e.name's turn, after a load's background write has landed.
func (s *Server) checkpointIndex(e *entry, force bool) {
	if s.ixc == nil {
		return
	}
	s.writes.run(e.name, func() {
		rows, saved := int64(e.ds.Len()), e.savedRows.Load()
		if rows != saved && (force || rows*8 >= saved*9) {
			s.writeIndex(e, e.ds.IndexParts(), rows, nil)
		}
	})
}

// swapIn replaces e's data with a freshly loaded dataset, zero downtime:
// shard and warm the replacement entirely off to the side — queries keep
// flowing on the current epoch the whole time — then publish it as e's next
// epoch (numbered at when that moves the counter forward; 0 = next), which
// carries the warm artifacts over, and persist what the cache lacked in the
// background. start is when the caller began reading fresh from its source
// (see logLoad).
// Coordinators holding cached slices of the pre-swap epoch keep getting
// them for one more epoch: the peer cache rebuilds on the next scatter call
// and retains the retired epoch as its grace predecessor, so their
// in-flight queries finish instead of 409ing.
func (s *Server) swapIn(e *entry, fresh *tkd.Dataset, at uint64, start time.Time) (warm bool, err error) {
	parse := time.Since(start)
	if fresh, err = s.shard(e.name, fresh); err != nil {
		return false, err
	}
	warm, cold, tail := s.warmPrepare(e.name, fresh)
	rows := fresh.ShardData()
	e.ds.ReplaceFromAt(fresh, at)
	fresh.Close() // its health loops, if any; the swap built e's own
	s.logLoad("dataset reloaded", e.name, e.path, fresh, warm, start, parse)
	s.persistLater(e, cold, int64(fresh.Len()-tail), rows)
	return warm, nil
}

// Close stops the schedulers immediately; in-flight submits return a
// shutdown error. It returns once the index files being written have landed.
// Safe to call multiple times, concurrently. For a graceful stop that
// finishes queued work first, call Shutdown.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.done)
		s.standing.stop()
		if s.fol != nil {
			s.fol.stop()
		}
		// Join the ingest publisher before closing the WALs underneath it, and
		// with it the last writer of index files.
		s.pubWG.Wait()
		s.writes.wait()
		// Retire the replica-set health loops of every sharded resident so
		// their goroutines do not outlive the server.
		for _, e := range s.reg.list() {
			e.ds.Close()
			if e.ing != nil {
				e.ing.log.Close()
			}
		}
	})
}

// Shutdown gracefully retires the server: new queries are refused with 503,
// standing evaluations end, every per-dataset scheduler answers the queries
// it dispatched, and only then is the server closed. Safe to call multiple times; callers that
// also manage an http.Server should call Shutdown before (or concurrently
// with) the http.Server's own Shutdown so handlers waiting on scheduler
// replies get their answers.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.standing.stop() // the drains below then wait only for queries a client awaits
	entries := s.reg.list()
	for _, e := range entries {
		e.sch.drain()
	}
	for _, e := range entries {
		e.sch.drainStop()
	}
	// Flush, don't drop: rows acked into the WAL but not yet folded into an
	// epoch are published and fsynced before the logs close.
	s.flushIngest()
	s.Close()
}

// unlessDraining serves h until Shutdown begins and answers 503 from then on.
func (s *Server) unlessDraining(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, r, http.StatusServiceUnavailable, errDraining, "server: shutting down")
			return
		}
		h(w, r)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ---- wire types ----

// maxMillis is the largest millisecond count a time.Duration holds; a
// request field above it would wrap to a negative duration.
const maxMillis = math.MaxInt64 / int64(time.Millisecond)

// QueryRequest is the POST /v1/datasets/{name}/query body.
type QueryRequest struct {
	// Dataset is optional: the path names the dataset, and a body that names
	// a different one is rejected.
	Dataset string `json:"dataset,omitempty"`
	K       int    `json:"k"`
	// Algorithm is absent or IBIG, the one plan the server runs; the other
	// four names answer 400 (the library runs them: tkd.WithAlgorithm).
	Algorithm string `json:"algorithm,omitempty"`
	// TimeoutMillis bounds this query end to end — scheduler wait, shard
	// fan-out, in-flight peer RPCs all observe the deadline. 0 falls back to
	// the server's configured default (which may be none).
	TimeoutMillis int `json:"timeout_millis,omitempty"`
	// AllowPartial opts into graceful degradation on sharded datasets: when
	// every replica of a shard is down, answer exactly over the live
	// row-ranges and say so, instead of failing with 503. Ignored for
	// unsharded datasets (they are always fully covered).
	AllowPartial bool `json:"allow_partial,omitempty"`
	// Explain returns the query's completed trace tree inline in the
	// response: scheduler queue wait, engine execution with the paper's
	// pruning counters and τ trajectory, and — on sharded datasets — the
	// per-window scatter/gather fan-out down to individual replica attempts.
	Explain bool `json:"explain,omitempty"`
}

// QueryItem is one ranked answer object.
type QueryItem struct {
	Rank  int    `json:"rank"`
	Index int    `json:"index"`
	ID    string `json:"id"`
	Score int    `json:"score"`
}

// queryItems renders an answer's items in rank order.
func queryItems(answer []tkd.Item) []QueryItem {
	items := make([]QueryItem, len(answer))
	for i, it := range answer {
		items[i] = QueryItem{Rank: i + 1, Index: it.Index, ID: it.ID, Score: it.Score}
	}
	return items
}

// QueryStats mirrors core.Stats on the wire.
type QueryStats struct {
	Candidates    int   `json:"candidates"`
	Scored        int   `json:"scored"`
	PrunedH1      int   `json:"pruned_h1"`
	PrunedH2      int   `json:"pruned_h2"`
	PrunedH3      int   `json:"pruned_h3"`
	PrunedSkyband int   `json:"pruned_skyband"`
	Comparisons   int64 `json:"comparisons"`
	Workers       int   `json:"workers"`
	Windows       int   `json:"windows"`
}

// QueryResponse is the POST /v1/datasets/{name}/query answer.
type QueryResponse struct {
	Dataset   string `json:"dataset"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	// Workers is the worker count the admission controller actually granted.
	Workers int         `json:"workers"`
	Items   []QueryItem `json:"items"`
	Stats   QueryStats  `json:"stats"`
	// Coalesced marks an answer shared from an identical query's execution;
	// BatchSize is the number of requests that execution answered.
	Coalesced bool    `json:"coalesced"`
	BatchSize int     `json:"batch_size"`
	LatencyMS float64 `json:"latency_ms"`
	// Epoch is the dataset epoch the answer was computed on — it advances
	// on every reload and publish, so clients can watch hot swaps happen
	// without polling /v1/datasets.
	Epoch uint64 `json:"epoch"`
	// Degraded marks an allow_partial answer computed without every shard:
	// exact over CoveredRows of the TotalRows. Absent on full answers.
	Degraded    bool `json:"degraded,omitempty"`
	CoveredRows int  `json:"covered_rows,omitempty"`
	TotalRows   int  `json:"total_rows,omitempty"`
	// Trace is the completed trace tree, present only when the request asked
	// for "explain": true (the response is byte-identical without it).
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// DatasetInfo is one GET /v1/datasets row.
type DatasetInfo struct {
	Name        string  `json:"name"`
	Objects     int     `json:"objects"`
	Dims        int     `json:"dims"`
	MissingRate float64 `json:"missing_rate"`
	Queries     int64   `json:"queries"`
	Epoch       uint64  `json:"epoch"`
	Reloads     int64   `json:"reloads"`
	// Shards is the row-range shard count; 0 for unsharded datasets.
	Shards int `json:"shards,omitempty"`
	// Source is the CSV path reloads rebuild from; empty for datasets
	// registered in-process.
	Source string `json:"source,omitempty"`
	// Followed marks a dataset kept in lockstep with a replication leader by
	// this server's follower sync loop; LeaderEpoch is the leader epoch last
	// applied and LeaderSeen the one last observed (their difference is the
	// sync lag). Absent on servers that follow nothing.
	Followed    bool   `json:"followed,omitempty"`
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`
	LeaderSeen  uint64 `json:"leader_seen,omitempty"`
	// Ingest marks a dataset backed by the durable ingest WAL; FsyncPolicy
	// is what an append ack means ("always" = on disk), WALAppends the row
	// records logged since boot, WALLagRows the rows logged but not yet
	// folded into a published epoch, and WALReplayedRows the rows crash
	// recovery replayed at startup. Absent without -waldir.
	Ingest          bool   `json:"ingest,omitempty"`
	FsyncPolicy     string `json:"fsync_policy,omitempty"`
	WALAppends      int64  `json:"wal_appends,omitempty"`
	WALLagRows      uint64 `json:"wal_lag_rows,omitempty"`
	WALReplayedRows int64  `json:"wal_replayed_rows,omitempty"`
	// DeltaPublishes counts the publishes that patched the previous epoch's
	// index in place and RebuildPublishes the ones that fell back to
	// rebuilding it from scratch. Absent without -waldir.
	DeltaPublishes   int64 `json:"delta_publishes,omitempty"`
	RebuildPublishes int64 `json:"rebuild_publishes,omitempty"`
}

// RegisterRequest is the POST /v1/datasets body: register a datagen-format
// CSV under a name while the server runs.
type RegisterRequest struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Negate bool   `json:"negate,omitempty"`
}

// ReloadResponse is the POST /v1/datasets/{name}/reload answer.
type ReloadResponse struct {
	Dataset     string  `json:"dataset"`
	Epoch       uint64  `json:"epoch"`
	Objects     int     `json:"objects"`
	Dims        int     `json:"dims"`
	MissingRate float64 `json:"missing_rate"`
	// WarmIndex reports whether the persisted-index cache supplied the
	// binned index (an unchanged source file) instead of a rebuild.
	WarmIndex bool    `json:"warm_index"`
	Seconds   float64 `json:"seconds"`
}

// ---- handlers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// maxBodyBytes bounds a request body.
const maxBodyBytes = 1 << 20

// decodeBody reads the request's JSON body into v — bounded, unknown fields
// rejected — and answers 400 itself when it cannot; the handler goes on only
// on true.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeFrom(w, r, r.Body, v)
}

// decodeFrom is decodeBody over body, which stands for r's.
func decodeFrom(w http.ResponseWriter, r *http.Request, body io.ReadCloser, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// servedAlgorithm is the one plan /query and /subscribe run. Every
// algorithm returns the same items in the same order, so the others would
// only answer slower; the library keeps all five.
const servedAlgorithm = "IBIG"

// checkAlgorithm admits a request's algorithm name — absent or IBIG — and
// answers 400 itself for any other: a name the library runs is not served,
// and a name it does not know is unknown.
func checkAlgorithm(w http.ResponseWriter, r *http.Request, name string) bool {
	if name == "" || name == servedAlgorithm {
		return true
	}
	if _, err := core.ParseAlgorithm(name); err != nil {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "%v", err)
	} else {
		writeError(w, r, http.StatusBadRequest, errBadRequest,
			"algorithm %q is not served; the library runs it (tkd.WithAlgorithm)", name)
	}
	return false
}

// queryLogSize is how many recent operations the in-memory ring behind GET
// /v1/debug/queries retains.
const queryLogSize = 256

// logTrace closes out one traced operation — a query, an append, a publish,
// a follower sync: it ends the root span and records e, stamped with the
// duration since e.Time, the trace and err, in the always-on ring log.
func (s *Server) logTrace(tr *obs.Trace, e obs.QueryEntry, err error) obs.QueryEntry {
	tr.Root().End()
	e.Duration = time.Since(e.Time)
	e.Trace = tr
	if err != nil {
		e.Err = err.Error()
	}
	s.qlog.Add(e)
	return e
}

// handleDatasetQuery serves POST /v1/datasets/{name}/query.
func (s *Server) handleDatasetQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeQuery(w, r, &req) {
		return
	}
	// The path names the dataset. A body that names a different one is a
	// contradiction, not a tiebreak.
	name := r.PathValue("name")
	if req.Dataset != "" && req.Dataset != name {
		writeError(w, r, http.StatusBadRequest, errBadRequest,
			"body dataset %q contradicts path dataset %q", req.Dataset, name)
		return
	}
	req.Dataset = name
	if req.K <= 0 {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "k must be positive")
		return
	}
	if !checkAlgorithm(w, r, req.Algorithm) {
		return
	}
	if req.TimeoutMillis < 0 || int64(req.TimeoutMillis) > maxMillis {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "timeout_millis must be in [0, %d]", maxMillis)
		return
	}
	e, ok := s.reg.get(req.Dataset)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", req.Dataset)
		return
	}

	// The request context already cancels on client disconnect; layer the
	// effective deadline (per-request timeout, else the server default) on
	// top. The same context rides through the scheduler into the shard
	// fan-out, so expiry aborts in-flight peer RPCs, not just the wait.
	ctx := r.Context()
	timeout := s.cfg.QueryTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Every query is traced — the ring-buffer query log is always on, and a
	// nil-span fast path costs nothing further down. An incoming W3C
	// traceparent header is adopted (this query becomes a child of the
	// caller's trace); a malformed or absent header is ignored, never a 4xx.
	tr := obs.Adopt(r.Header.Get(obs.TraceparentHeader), "query")
	root := tr.Root()
	root.SetAttrs(
		obs.Attr{Key: "dataset", Str: req.Dataset, IsStr: true},
		obs.Attr{Key: "k", Int: int64(req.K)},
		obs.Attr{Key: "algorithm", Str: servedAlgorithm, IsStr: true},
	)

	start := time.Now()
	rep, err := e.sch.submit(ctx, queryKey{K: req.K, AllowPartial: req.AllowPartial}, root)
	if err != nil {
		// Scheduler-path failure: the deadline fired (or the client left)
		// while the query waited for its slots or ran, or the
		// scheduler is draining/shut down.
		s.finishQuery(tr, &req, start, false, err)
		status, code := http.StatusServiceUnavailable, errDraining
		if errors.Is(err, context.DeadlineExceeded) {
			status, code = http.StatusGatewayTimeout, errDeadlineExceeded
			e.met.deadlineExceeded.Add(1)
		}
		writeErrorTrace(w, tr.ID(), status, code, "%v", err)
		return
	}
	if rep.err != nil {
		// Execution failure: classify — deadline expiry is the client's
		// budget (504), a shard with no usable replica is the serving
		// tier's outage (503, retryable elsewhere), the rest are 500s.
		status, code := http.StatusInternalServerError, errInternal
		switch {
		case errors.Is(rep.err, context.DeadlineExceeded):
			status, code = http.StatusGatewayTimeout, errDeadlineExceeded
			e.met.deadlineExceeded.Add(1)
		case errors.Is(rep.err, context.Canceled):
			status, code = http.StatusServiceUnavailable, errDraining
		case errors.As(rep.err, new(*shard.Unavailable)):
			status, code = http.StatusServiceUnavailable, errDegradedUnavailable
		}
		s.finishQuery(tr, &req, start, rep.coalesced, rep.err)
		writeErrorTrace(w, tr.ID(), status, code, "%v", rep.err)
		return
	}
	s.finishQuery(tr, &req, start, rep.coalesced, nil)
	resp := QueryResponse{
		Dataset:   req.Dataset,
		K:         req.K,
		Algorithm: servedAlgorithm,
		Workers:   rep.granted,
		Stats: QueryStats{
			Candidates:    rep.st.Candidates,
			Scored:        rep.st.Scored,
			PrunedH1:      rep.st.PrunedH1,
			PrunedH2:      rep.st.PrunedH2,
			PrunedH3:      rep.st.PrunedH3,
			PrunedSkyband: rep.st.PrunedSkyband,
			Comparisons:   rep.st.Comparisons,
			Workers:       rep.st.Workers,
			Windows:       rep.st.Windows,
		},
		Coalesced: rep.coalesced,
		BatchSize: rep.batch,
		LatencyMS: float64(time.Since(start).Microseconds()) / 1000,
		Epoch:     rep.st.Epoch,
	}
	if rep.deg.Degraded {
		resp.Degraded = true
		resp.CoveredRows = rep.deg.CoveredRows
		resp.TotalRows = rep.deg.TotalRows
	}
	if req.Explain {
		resp.Trace = tr.JSON()
	}
	writeQueryResponse(w, &resp, rep.res.Items)
}

// finishQuery closes out one query's trace: log it (logTrace), fold the span
// durations into the per-stage histograms, and emit the slow-query warning
// when the configured threshold is exceeded. A coalesced reply shares another
// query's execution spans, so only its own queue wait feeds the stage
// histograms — the shared engine, scatter, gather and retry spans are
// observed once, on the hosting query.
func (s *Server) finishQuery(tr *obs.Trace, req *QueryRequest, start time.Time, coalesced bool, qerr error) {
	entry := s.logTrace(tr, obs.QueryEntry{Time: start, Dataset: req.Dataset, K: req.K, Algorithm: servedAlgorithm, Coalesced: coalesced}, qerr)
	s.stages.observeTrace(tr, coalesced)
	if s.cfg.SlowQuery > 0 && entry.Duration >= s.cfg.SlowQuery {
		s.log.Warn("slow query",
			"trace_id", tr.ID().String(),
			"dataset", req.Dataset,
			"k", req.K,
			"algorithm", servedAlgorithm,
			"duration_ms", float64(entry.Duration.Microseconds())/1000,
			"coalesced", coalesced,
			"err", entry.Err,
		)
	}
}

// debugQueryEntry is one GET /v1/debug/queries row.
type debugQueryEntry struct {
	Time       time.Time      `json:"time"`
	Dataset    string         `json:"dataset"`
	K          int            `json:"k,omitempty"`
	Algorithm  string         `json:"algorithm"`
	DurationMS float64        `json:"duration_ms"`
	Err        string         `json:"err,omitempty"`
	Coalesced  bool           `json:"coalesced,omitempty"`
	TraceID    string         `json:"trace_id,omitempty"`
	Trace      *obs.TraceJSON `json:"trace,omitempty"`
}

// handleDebugQueries serves the in-memory query log: the most recent queries
// (default), or the slowest since boot with ?sort=slow. ?n bounds the row
// count (default 20) and ?trace=1 includes each entry's full trace tree.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 20
	if v := q.Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			writeError(w, r, http.StatusBadRequest, errBadRequest, "n must be a positive integer")
			return
		}
		n = parsed
	}
	var entries []obs.QueryEntry
	switch q.Get("sort") {
	case "", "recent":
		entries = s.qlog.Recent(n)
	case "slow":
		entries = s.qlog.Slowest(n)
	default:
		writeError(w, r, http.StatusBadRequest, errBadRequest, "sort must be recent or slow")
		return
	}
	withTrace := q.Get("trace") == "1" || q.Get("trace") == "true"
	out := make([]debugQueryEntry, len(entries))
	for i, e := range entries {
		out[i] = debugQueryEntry{
			Time:       e.Time,
			Dataset:    e.Dataset,
			K:          e.K,
			Algorithm:  e.Algorithm,
			DurationMS: float64(e.Duration.Microseconds()) / 1000,
			Err:        e.Err,
			Coalesced:  e.Coalesced,
		}
		if e.Trace != nil {
			out[i].TraceID = e.Trace.ID().String()
		}
		if withTrace {
			out[i].Trace = e.Trace.JSON()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"queries": out})
}

func (s *Server) datasetInfo(e *entry) DatasetInfo {
	info := DatasetInfo{
		Name:        e.name,
		Objects:     e.ds.Len(),
		Dims:        e.ds.Dim(),
		MissingRate: e.ds.MissingRate(),
		Queries:     e.met.queries.Load(),
		Epoch:       e.ds.Epoch(),
		Reloads:     e.met.reloads.Load(),
		Shards:      e.ds.Shards(),
		Source:      e.path,
	}
	if e.followed.Load() {
		info.Followed = true
		info.LeaderEpoch = e.leaderEpoch.Load()
		info.LeaderSeen = e.leaderSeen.Load()
	}
	if e.ing != nil {
		info.Ingest = true
		info.FsyncPolicy = s.cfg.Fsync.String()
		info.WALAppends = e.ing.log.Appends()
		info.WALLagRows = e.ing.lag()
		info.WALReplayedRows = e.ing.replayed
		info.DeltaPublishes = e.ing.deltaPublishes.Load()
		info.RebuildPublishes = e.ing.rebuildPublishes.Load()
	}
	return info
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	infos := make([]DatasetInfo, len(entries))
	for i, e := range entries {
		infos[i] = s.datasetInfo(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

// handleDatasetInfo is the single-resource view of one dataset — the same
// shape as one element of GET /v1/datasets, without fetching the fleet.
func (s *Server) handleDatasetInfo(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", name)
		return
	}
	writeJSON(w, http.StatusOK, s.datasetInfo(e))
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" || req.Path == "" {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "name and path are required")
		return
	}
	// A follower must not let a local file shadow a leader dataset — not
	// even after a local DELETE (the delete-then-recreate path): the sync
	// loop would fight the local copy forever, or worse, adopt it. The
	// name-set check covers evicted entries the registry no longer knows.
	if s.fol != nil && s.fol.managed(req.Name) {
		writeFollowerReadonly(w, r, s.cfg.Follow,
			"dataset %q is replicated from a leader; register it there", req.Name)
		return
	}
	start := time.Now()
	ds, err := loadCSV(req.Path, req.Negate)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "%v", err)
		return
	}
	warm, err := s.register(req.Name, ds, req.Path, req.Negate, start)
	if err != nil {
		status, code := http.StatusBadRequest, errBadRequest
		if errors.Is(err, errDuplicate) {
			status, code = http.StatusConflict, errDatasetExists
		}
		writeError(w, r, status, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, ReloadResponse{
		Dataset:     req.Name,
		Epoch:       ds.Epoch(),
		Objects:     ds.Len(),
		Dims:        ds.Dim(),
		MissingRate: ds.MissingRate(),
		WarmIndex:   warm,
		Seconds:     time.Since(start).Seconds(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", name)
		return
	}
	if e.followed.Load() || (s.fol != nil && s.fol.managed(name)) {
		// Reloading a follower's replica from a local file would fork it
		// from the leader until the next sync overwrote it — a mutation
		// that belongs on the leader.
		writeFollowerReadonly(w, r, s.cfg.Follow,
			"dataset %q is replicated from a leader; reload it there", name)
		return
	}
	if e.path == "" {
		writeError(w, r, http.StatusConflict, errNotReloadable,
			"dataset %q was registered in-process; no source file to reload from", name)
		return
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	// Re-check residency under the reload lock: a concurrent evict may have
	// removed the entry, and reloading an evicted dataset would rebuild its
	// index cache and report success for a name that now 404s.
	if cur, ok := s.reg.get(name); !ok || cur != e {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "dataset %q was evicted", name)
		return
	}
	start := time.Now()
	fresh, err := loadCSV(e.path, e.negate)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	if fresh.Len() == 0 {
		writeError(w, r, http.StatusInternalServerError, errInternal,
			"reload of %q from %s produced an empty dataset", name, e.path)
		return
	}
	warm, err := s.swapIn(e, fresh, 0, start)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, errInternal, "%v", err)
		return
	}
	if e.ing != nil {
		// A reload declares the source file authoritative: rows ingested
		// through the WAL (published or pending) are intentionally
		// discarded, so the log restarts empty — replaying them on top of
		// data they were never validated against would be corruption, not
		// durability.
		if err := s.resetIngestLocked(e); err != nil {
			s.log.Warn("wal reset after reload failed; appends disabled until restart",
				"dataset", name, "err", err)
		}
	}
	e.met.reloads.Add(1)
	s.notifyStanding(e)
	writeJSON(w, http.StatusOK, ReloadResponse{
		Dataset:     name,
		Epoch:       e.ds.Epoch(),
		Objects:     e.ds.Len(),
		Dims:        e.ds.Dim(),
		MissingRate: e.ds.MissingRate(),
		WarmIndex:   warm,
		Seconds:     time.Since(start).Seconds(),
	})
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.remove(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", name)
		return
	}
	// Drain: requests already accepted (or racing the removal) get served;
	// once every dispatched group has answered, the shard health loops stop
	// and the peer endpoint forgets the shard slices it cached for
	// coordinators. Its standing queries close first, so the drain does not
	// wait for their evaluations.
	s.standing.dropDataset(name)
	e.sch.drainStop()
	e.ds.Close()
	// The reload lock orders what follows after any in-flight reload or
	// publish, and so after the index write it queued.
	e.reloadMu.Lock()
	if e.ing != nil {
		// The WAL dies with the dataset: acked-but-unpublished rows are
		// discarded (DELETE is the explicit discard), and the segments must
		// not resurrect the dataset if the name is ever registered again.
		if err := e.ing.log.Remove(); err != nil {
			s.log.Warn("wal removal on evict failed", "dataset", name, "err", err)
		}
	}
	e.reloadMu.Unlock()
	s.writes.join(name)
	s.peer.Evict(name)
	s.life.evictions.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name, "epoch": e.ds.Epoch()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     status,
		"datasets":   len(s.reg.list()),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
