// Command tkdserver serves top-k dominating queries over multiple resident
// datasets through an HTTP/JSON API. Each dataset is loaded once (datagen
// CSV format), indexed once, and queried from warm indexes; a query is
// dispatched the moment it arrives, an identical query that arrives while it
// still waits for worker slots shares its execution, distinct ones run side
// by side, and an admission controller bounds the total worker fan-out and
// shares it fairly.
//
// The dataset lifecycle is live: datasets can be registered, hot-reloaded
// (zero downtime — in-flight queries finish on the old epoch) and evicted
// through the /v1/datasets admin endpoints, and -indexdir persists built
// indexes so warm restarts and reloads of unchanged files skip the paper's
// dominant preprocessing cost. SIGINT/SIGTERM drain gracefully: queued
// queries finish, new queries get 503.
//
// One huge dataset can be split across processes: -shards N serves it
// through a scatter-gather coordinator (answers stay byte-identical to the
// unsharded dataset), and -peers hands the shards to remote tkdserver
// processes speaking the /v1/shard/query protocol — every tkdserver is a
// capable peer, no special mode required. Pipe-separating URLs within one
// -peers entry makes that shard a replica set: reads load-balance across
// the replicas with per-replica circuit breakers, retries with backoff,
// optional hedging, and background health probes (-health-interval) that
// quarantine divergent replicas. Per-query deadlines (-query-timeout or the
// request's timeout_millis) propagate through the scheduler into in-flight
// shard RPCs.
//
// Replica groups stay in lockstep without out-of-band dataset distribution:
// -follow http://leader:8080 starts a follower that discovers the leader's
// datasets, fetches each published epoch over GET /v1/datasets/{name}/epoch
// (data, fingerprint and — for unsharded leaders — the built index, in one
// validated stream) and publishes it locally under the leader's epoch
// number. A follower needs no -dataset flags; reloading the leader rolls
// every follower automatically.
//
// -waldir enables durable row ingest: POST /v1/datasets/{name}/append logs
// rows to a per-dataset write-ahead log before acking (-fsync sets what the
// ack means; "always" survives kill -9), folds them into published epochs at
// -publish-interval cadence, and replays acked-but-unpublished rows on
// restart. Reload and DELETE stay file-authoritative: both discard the WAL.
// Publishes are incremental: a batch is folded into the previous epoch's
// index by column patching — O(batch) work, fingerprint-verified, answers
// byte-identical to a rebuild — and replication shares the economy:
// followers that advertise an epoch in the leader's append lineage receive
// only the rows appended since. Standing top-k subscriptions ride the same
// deltas: POST /v1/datasets/{name}/subscribe pushes a new answer (SSE or
// long-poll) only when a publish actually changed it.
//
// Usage:
//
//	tkdserver -dataset nba=nba.csv -dataset movies=movies.csv
//	tkdserver -addr :9000 -dataset d=data.csv -indexdir /var/cache/tkd
//	tkdserver -dataset big=big.csv -shards 4                               # sharded in-process
//	tkdserver -dataset big=big.csv -shards 4 -peers http://p1:8080,http://p2:8080
//	tkdserver -dataset big=big.csv -shards 2 \
//	    -peers 'http://a:8080|http://b:8080,http://c:8080|http://d:8080' \
//	    -health-interval 5s -query-timeout 2s                              # replicated shards
//	tkdserver -addr :8081 -follow http://leader:8080                       # replication follower
//	tkdserver -dataset d=data.csv -waldir /var/lib/tkd/wal -fsync always   # durable ingest
//
// Endpoints: POST /v1/datasets/{name}/query, GET/POST /v1/datasets, POST
// /v1/datasets/{name}/append, POST /v1/datasets/{name}/reload, DELETE
// /v1/datasets/{name}, GET /healthz, GET /metrics. See the README's
// "Operating tkdserver" section for an example curl session and the
// metrics glossary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// datasetFlag collects repeated -dataset name=path mappings.
type datasetFlag []string

func (d *datasetFlag) String() string { return strings.Join(*d, ",") }

func (d *datasetFlag) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*d = append(*d, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tkdserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var datasets datasetFlag
	fs.Var(&datasets, "dataset", "name=path of a datagen-format CSV to serve (repeatable)")
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		negate      = fs.Bool("negate", false, "negate loaded values (use when larger is better)")
		maxWorkers  = fs.Int("max-workers", 0, "total in-flight worker goroutines across queries, shared fairly between the queries runnable at once (0 = GOMAXPROCS)")
		indexDir    = fs.String("indexdir", "", "directory for persisted indexes; warm restarts skip index construction. A file is written after its dataset starts serving, and a crash before then means a cold rebuild at the next boot, never a wrong index. With -waldir the file is a checkpoint: rewritten when the rows have grown by an eighth and on a graceful shutdown, and a restart after a crash loads it and patches the rows logged since (empty = rebuild at boot)")
		drainWait   = fs.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight requests on SIGTERM/SIGINT")
		shards      = fs.Int("shards", 1, "split each dataset into N row-range shards behind a scatter-gather coordinator (1 = unsharded; answers are byte-identical either way)")
		peersFlag   = fs.String("peers", "", "comma-separated base URLs of tkdserver peers that serve the shards remotely (requires -shards > 1; peers must serve the same -dataset mappings; pipe-separate replicas within an entry, e.g. http://a:8080|http://b:8080)")
		peerTimeout = fs.Duration("peer-timeout", 30*time.Second, "per-request timeout for shard-peer round trips")
		queryTO     = fs.Duration("query-timeout", 0, "default per-query deadline when the request carries no timeout_millis, and every standing evaluation's (0 = none)")
		healthIvl   = fs.Duration("health-interval", 0, "period of the background replica health probes; divergent replicas are quarantined (0 = disabled)")
		logFormat   = fs.String("log-format", "text", "structured log encoding: text or json")
		slowQuery   = fs.Duration("slow-query", 0, "log queries slower than this at warn level with their trace ID (0 = disabled; the /v1/debug/queries ring is always on)")
		debugAddr   = fs.String("debug-addr", "", "separate listen address for the net/http/pprof profiling endpoints (empty = pprof not served; keep this off any public interface)")
		follow      = fs.String("follow", "", "base URL of a leader tkdserver to follow: its datasets are discovered, fetched over the epoch stream endpoint and kept in lockstep through every reload (a follower needs no -dataset flags of its own)")
		followIvl   = fs.Duration("follow-interval", 2*time.Second, "leader poll period in follower mode (polls are conditional and cheap)")
		walDir      = fs.String("waldir", "", "directory for per-dataset write-ahead logs: enables POST /v1/datasets/{name}/append with crash recovery (empty = ingest disabled; ignored with -shards > 1 or -follow)")
		fsyncPolicy = fs.String("fsync", "always", "when an append's WAL record is fsynced: always (ack = on disk) or none (ack = handed to the OS)")
		publishIvl  = fs.Duration("publish-interval", 500*time.Millisecond, "cadence at which logged rows are folded into a published epoch (one index patch per batch)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(datasets) == 0 && *follow == "" {
		fmt.Fprintln(stderr, "tkdserver: at least one -dataset name=path is required (or -follow a leader)")
		fs.PrintDefaults()
		return 2
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stdout, nil)
	case "json":
		handler = slog.NewJSONHandler(stdout, nil)
	default:
		fmt.Fprintf(stderr, "tkdserver: -log-format must be text or json, got %q\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	var peers []string
	if *peersFlag != "" {
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
	}
	if len(peers) > 0 && *shards <= 1 {
		fmt.Fprintln(stderr, "tkdserver: -peers requires -shards > 1")
		return 2
	}
	fsync, err := wal.ParsePolicy(*fsyncPolicy)
	if err != nil {
		fmt.Fprintln(stderr, "tkdserver:", err)
		return 2
	}

	srv, err := buildServer(datasets, *negate, server.Config{
		MaxWorkers:      *maxWorkers,
		IndexDir:        *indexDir,
		Shards:          *shards,
		ShardPeers:      peers,
		PeerTimeout:     *peerTimeout,
		QueryTimeout:    *queryTO,
		HealthInterval:  *healthIvl,
		SlowQuery:       *slowQuery,
		Follow:          *follow,
		FollowInterval:  *followIvl,
		WALDir:          *walDir,
		Fsync:           fsync,
		PublishInterval: *publishIvl,
	}, logger)
	if err != nil {
		fmt.Fprintln(stderr, "tkdserver:", err)
		return 1
	}
	defer srv.Close()

	// The pprof endpoints go on their own listener, only when asked for:
	// profiling data (heap contents, CPU samples) has no business on the
	// query port.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(stderr, "tkdserver:", err)
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Handler: dmux}
		defer dsrv.Close()
		go func() { _ = dsrv.Serve(dln) }()
		logger.Info("pprof listening", "addr", dln.Addr().String())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "tkdserver:", err)
		return 1
	}
	logger.Info("listening", "addr", ln.Addr().String())

	// Serve until a termination signal, then drain: the query service stops
	// accepting (503) and finishes every queued query before
	// the HTTP server closes its connections — SIGTERM never drops work
	// that was already accepted.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "tkdserver:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}
	// Restore default signal handling immediately: a second SIGINT/SIGTERM
	// during a slow drain kills the process instead of being swallowed.
	stop()
	logger.Info("draining", "reason", "signal received")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Drain the schedulers (refuse new queries, finish queued ones)
	// under the same deadline that bounds the HTTP teardown.
	drained := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(drained)
	}()
	select {
	case <-drained:
	case <-shutdownCtx.Done():
		logger.Warn("drain timeout; abandoning queued work")
		srv.Close()
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("forced close", "err", err)
		_ = httpSrv.Close()
	}
	logger.Info("drained, bye")
	return 0
}

// buildServer loads every -dataset mapping into a fresh server that logs to
// logger — each load ends with the server's "dataset loaded" line, which
// says where a slow start went: parsing, the index or the queue (the index
// files are written after the dataset serves, under "index persisted").
func buildServer(datasets []string, negate bool, cfg server.Config, logger *slog.Logger) (*server.Server, error) {
	cfg.Logger = logger
	srv := server.New(cfg)
	for _, spec := range datasets {
		name, path, _ := strings.Cut(spec, "=")
		if name == "" || path == "" {
			srv.Close()
			return nil, fmt.Errorf("bad -dataset %q: want name=path", spec)
		}
		if err := srv.LoadCSVFile(name, path, negate); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}
