package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/tkd"
)

// Durable ingest. With Config.WALDir set, every unsharded leader dataset
// gets a write-ahead log (one directory of segment files per dataset, see
// internal/wal) and a POST /v1/datasets/{name}/append endpoint. An append
// is logged — and, under the "always" fsync policy, fsynced — before it is
// acked, then buffered; a background publisher folds the buffered rows into
// the dataset on the Config.PublishInterval cadence as one epoch-RCU
// publish (tkd.AppendRows: extending the previous epoch's rows, fingerprint
// and index in O(batch), falling back to a rebuild only when it cannot —
// cold index, lineage break) and records a checkpoint in the WAL (row count
// covered, epoch number, data fingerprint). The persisted index is not
// rewritten per publish: it is a checkpoint of a row prefix, saved again
// once the rows have grown by an eighth (Server.checkpointIndex), and the
// WAL is its delta log. Startup recovery replays the WAL on top of the
// source file, loads the index checkpoint — accepted when the first
// that-many recovered rows hash to its fingerprint — and patches the rows
// behind it the way a publish would, so a restart after a crash costs a load
// and a patch, not a rebuild. Rows beyond the last WAL checkpoint are exactly
// the acked-but-unpublished suffix; they are published with the rest before
// the server starts answering. Followers need nothing new: a recovered epoch
// ships over the same epoch-stream endpoint as any other publish.
//
// Sharded datasets and replication followers do not ingest: a follower's
// data is the leader's (mutations there get a 409 pointing at the leader),
// and a sharded coordinator would need a cross-shard commit protocol this
// server does not have.

// ingestState is one dataset's WAL-backed ingest side: the log, the rows
// logged but not yet folded into a published epoch, and the row accounting
// that drives checkpoints and the reported lag. It hangs off the registry
// entry; nil means ingest is not enabled for that dataset.
type ingestState struct {
	mu      sync.Mutex
	log     *wal.Log
	base    *tkd.Dataset
	pending []wal.Row // logged, acked, not yet published
	logged  uint64    // row records in the WAL (including recovered ones)
	// published is the row count covered by the last durable checkpoint;
	// logged - published is the replay the next crash would need.
	published uint64

	replayed int64 // rows replayed into the dataset at open, set once

	// Publish-path accounting: how many publishes patched the previous
	// epoch's index in place versus rebuilt it from scratch. Exposed per
	// dataset in /v1/datasets; cmd/tkdserver's TestKillUnderLoad audits
	// deltaPublishes to prove recovery covers patched epochs.
	deltaPublishes   atomic.Int64
	rebuildPublishes atomic.Int64
}

// lag reports the rows a crash right now would have to replay.
func (ing *ingestState) lag() uint64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.logged - ing.published
}

// ingestEnabled reports whether this server attaches WALs to the unsharded
// datasets it registers: a WAL directory is configured and the server is not
// a replication follower (its data belongs to the leader).
func (s *Server) ingestEnabled() bool {
	return s.cfg.WALDir != "" && s.cfg.Follow == ""
}

// walDir maps a dataset name to its WAL directory, escaping separators the
// same way the index cache does so names cannot walk out of WALDir.
func (s *Server) walDir(name string) string {
	return filepath.Join(s.cfg.WALDir, url.PathEscape(name)+".wal")
}

func (s *Server) walOptions() wal.Options {
	return wal.Options{Policy: s.cfg.Fsync, FS: s.cfg.WALFS}
}

// openIngest opens (recovering if needed) the WAL behind name and replays
// every recovered row into base. The caller has loaded base from its source
// but not prepared it yet: replay happens before index warm-up, so the index
// checkpoint in the cache directory is checked against the recovered rows —
// it loads when it covers a prefix of them, the replayed tail is patched on
// top, and anything else rebuilds. RestoreEpoch fast-forwards the epoch
// counter so the first publish after recovery resumes the pre-crash
// numbering instead of restarting at 1 — followers would otherwise see the
// counter jump backwards under an already-shipped fingerprint.
func (s *Server) openIngest(name string, base *tkd.Dataset) (*ingestState, error) {
	l, rec, err := wal.Open(s.walDir(name), s.walOptions())
	if err != nil {
		return nil, fmt.Errorf("server: wal for %q: %w", name, err)
	}
	ing := &ingestState{log: l, base: base}
	ing.logged = uint64(len(rec.Rows))
	ing.replayed = int64(len(rec.Rows))
	if rec.HasCheckpoint {
		ing.published = rec.Checkpoint.Rows
	}
	for i, r := range rec.Rows {
		if err := base.Append(r.ID, r.Values...); err != nil {
			l.Close()
			return nil, fmt.Errorf("server: wal replay of %q failed at row %d of %d (source file changed shape since the rows were acked? remove %s to discard them): %w",
				name, i+1, len(rec.Rows), l.Dir(), err)
		}
	}
	if rec.HasCheckpoint {
		target := rec.Checkpoint.Epoch
		if ing.logged > rec.Checkpoint.Rows {
			// An acked-but-unpublished suffix exists: it publishes as the
			// epoch after the checkpointed one.
			target++
		}
		base.RestoreEpoch(target)
	}
	if len(rec.Rows) > 0 || rec.TruncatedBytes > 0 {
		s.log.Info("wal recovered",
			"dataset", name,
			"rows", len(rec.Rows),
			"published", ing.published,
			"replaying", ing.logged-ing.published,
			"truncated_bytes", rec.TruncatedBytes,
			"segments", rec.Segments,
		)
	}
	return ing, nil
}

// sealRecovery checkpoints the state just published by the post-replay
// warm-up when recovery found acked-but-unpublished rows, so the next
// restart warm-loads instead of replaying the same suffix again. A no-op
// for a clean start (the recovered checkpoint already covers every row),
// which therefore leaves the dataset's fingerprint unread.
func (ing *ingestState) sealRecovery(ds *tkd.Dataset) error {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.logged == ing.published {
		return nil
	}
	if err := ing.log.AppendCheckpoint(wal.Checkpoint{Rows: ing.logged, Epoch: ds.Epoch(), Fingerprint: ds.Fingerprint()}); err != nil {
		return err
	}
	ing.published = ing.logged
	return nil
}

// AppendRequest is the POST /v1/datasets/{name}/append body. Values must
// match the dataset's dimensionality; null marks an unobserved dimension
// (the CSV format's "-"), and every row needs at least one observed value.
type AppendRequest struct {
	Rows []AppendRow `json:"rows"`
}

// AppendRow is one ingested object on the wire.
type AppendRow struct {
	ID     string     `json:"id"`
	Values []*float64 `json:"values"`
}

// AppendResponse is the POST /v1/datasets/{name}/append answer. Durable
// reports what the ack means under the server's fsync policy: true means
// the rows are on disk and survive kill -9, false means they are logged and
// handed to the OS (-fsync none; a graceful shutdown still fsyncs). Pending
// counts the rows logged but not yet folded into a published epoch — they
// are queryable after the next publish tick, and a restart replays them.
type AppendResponse struct {
	Dataset  string `json:"dataset"`
	Appended int    `json:"appended"`
	Durable  bool   `json:"durable"`
	Pending  uint64 `json:"pending"`
	Epoch    uint64 `json:"epoch"`
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", name)
		return
	}
	if e.followed.Load() || (s.fol != nil && s.fol.managed(name)) {
		writeFollowerReadonly(w, r, s.cfg.Follow,
			"dataset %q is replicated from a leader; append there", name)
		return
	}
	if e.ing == nil {
		msg := fmt.Sprintf("ingest is not enabled for %q", name)
		if s.cfg.WALDir == "" {
			msg += " (start tkdserver with -waldir)"
		} else if e.ds.Shards() > 0 { // see register: no cross-shard commit protocol
			msg += " (sharded datasets do not ingest)"
		}
		writeError(w, r, http.StatusConflict, errIngestDisabled, "%s", msg)
		return
	}
	var req AppendRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Rows) == 0 {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "rows must be non-empty")
		return
	}
	// Validate every row before logging any: a WAL record is an ack, and a
	// row that cannot replay (wrong dimensionality, empty) must never
	// become one.
	dim := e.ds.Dim()
	rows := make([]wal.Row, len(req.Rows))
	for i, in := range req.Rows {
		if in.ID == "" || len(in.ID) > 65535 {
			writeError(w, r, http.StatusBadRequest, errBadRequest, "rows[%d]: id must be 1..65535 bytes", i)
			return
		}
		if err := data.CheckID(in.ID); err != nil {
			writeError(w, r, http.StatusBadRequest, errBadRequest, "rows[%d]: %v", i, err)
			return
		}
		if len(in.Values) != dim {
			writeError(w, r, http.StatusBadRequest, errBadRequest, "rows[%d]: got %d values, dataset has %d dimensions", i, len(in.Values), dim)
			return
		}
		vals := make([]float64, dim)
		observed := false
		for d, v := range in.Values {
			if v == nil {
				vals[d] = math.NaN()
				continue
			}
			if math.IsNaN(*v) || math.IsInf(*v, 0) {
				writeError(w, r, http.StatusBadRequest, errBadRequest, "rows[%d]: values[%d] must be finite (null marks a missing dimension)", i, d)
				return
			}
			vals[d] = *v
			observed = true
		}
		if !observed {
			writeError(w, r, http.StatusBadRequest, errBadRequest, "rows[%d]: at least one value must be observed", i)
			return
		}
		rows[i] = wal.Row{ID: in.ID, Values: vals}
	}

	tr := obs.Adopt(r.Header.Get(obs.TraceparentHeader), "ingest")
	root := tr.Root()
	root.SetStr("dataset", name)
	root.SetInt("rows", int64(len(rows)))
	start := time.Now()

	ing := e.ing
	walSp := root.StartChild("wal")
	// One batch, one write, one fsync (under -fsync always): the ack below
	// still means "on disk", and it costs one flush whatever the batch size.
	// The rows become pending — publishable — only once the whole batch is
	// logged.
	ing.mu.Lock()
	logErr := ing.log.AppendRows(rows)
	if logErr == nil {
		ing.pending = append(ing.pending, rows...)
		ing.logged += uint64(len(rows))
	}
	pending := ing.logged - ing.published
	ing.mu.Unlock()
	walSp.End()
	s.logTrace(tr, obs.QueryEntry{Time: start, Dataset: name, Algorithm: "ingest/append"}, logErr)
	s.stages.observeTrace(tr, false)
	if logErr != nil {
		// The log is poisoned and none of the batch was acked; a prefix of
		// its frames may have reached the file and will then replay on
		// restart. The client must treat the whole batch as failed and retry
		// against a healthy server.
		writeErrorTrace(w, tr.ID(), http.StatusInternalServerError, errWALFailed,
			"wal append of %d rows failed, none acked: %v", len(rows), logErr)
		return
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Dataset:  name,
		Appended: len(rows),
		Durable:  s.cfg.Fsync == wal.SyncAlways,
		Pending:  pending,
		Epoch:    e.ds.Epoch(),
	})
}

// publishLoop is the background publisher: on every tick it folds each
// dataset's pending rows into a fresh epoch. One goroutine serves every
// dataset — publishes are index rebuilds, and running them sequentially
// keeps the rebuild CPU bounded regardless of dataset count.
func (s *Server) publishLoop() {
	defer s.pubWG.Done()
	ivl := s.cfg.PublishInterval
	if ivl <= 0 {
		ivl = 500 * time.Millisecond
	}
	t := time.NewTicker(ivl)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			for _, e := range s.reg.list() {
				if e.ing == nil {
					continue
				}
				if err := s.publishPending(e); err != nil {
					s.log.Warn("ingest publish failed", "dataset", e.name, "err", err)
				}
			}
		}
	}
}

// publishPending folds e's pending rows into a published epoch under the
// reload lock, which serializes it against reloads and evictions (both
// reshape the data and the WAL underneath a publish).
func (s *Server) publishPending(e *entry) error {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	return s.publishPendingLocked(e)
}

// publishPendingLocked is publishPending for callers already holding
// e.reloadMu (the reload handler flushes before swapping).
func (s *Server) publishPendingLocked(e *entry) error {
	ing := e.ing
	ing.mu.Lock()
	rows := ing.pending
	ing.pending = nil
	logged := ing.logged
	lg := ing.log
	ing.mu.Unlock()
	if len(rows) == 0 {
		return nil
	}
	start := time.Now()
	tr := obs.New("ingest-publish")
	root := tr.Root()
	root.SetStr("dataset", e.name)
	root.SetInt("rows", int64(len(rows)))

	pub := root.StartChild("publish")
	patched, err := ing.base.AppendRows(rows)
	if err != nil {
		// Cannot happen for rows the append handler validated; if it does
		// (the dataset changed shape underneath us) the batch is rejected
		// whole, the rows stay safe in the WAL, and a restart retries the
		// replay.
		pub.End()
		root.End()
		return fmt.Errorf("folding %d rows: %w", len(rows), err)
	}
	if patched {
		ing.deltaPublishes.Add(1)
		pub.SetStr("mode", "delta")
	} else {
		ing.rebuildPublishes.Add(1)
		pub.SetStr("mode", "rebuild")
	}
	epoch := ing.base.Epoch()
	pub.SetInt("epoch", int64(epoch))
	pub.End()

	s.checkpointIndex(e, false)

	// The checkpoint fsyncs regardless of policy: it declares the first
	// `logged` rows covered by this epoch, and that claim must not outrun
	// the disk. Failure is survivable — the rows are published and in the
	// WAL, so a restart merely replays them again.
	cpSp := root.StartChild("wal")
	cpErr := lg.AppendCheckpoint(wal.Checkpoint{Rows: logged, Epoch: epoch, Fingerprint: ing.base.Fingerprint()})
	cpSp.End()

	// The epoch is live regardless of how the checkpoint fared — wake the
	// standing queries.
	s.notifyStanding(e)
	if cpErr == nil {
		ing.mu.Lock()
		if logged > ing.published {
			ing.published = logged
		}
		ing.mu.Unlock()
	}
	s.logTrace(tr, obs.QueryEntry{Time: start, Dataset: e.name, Algorithm: "ingest/publish"}, cpErr)
	s.stages.observeTrace(tr, false)
	return cpErr
}

// flushIngest publishes every dataset's pending rows and forces a final
// fsync — the drain path, so a graceful shutdown never drops rows it acked
// under a lazy fsync policy.
func (s *Server) flushIngest() {
	for _, e := range s.reg.list() {
		if e.ing == nil {
			continue
		}
		e.reloadMu.Lock()
		err := s.publishPendingLocked(e)
		// Leave an index file level with the data: the next boot then loads
		// it whole, with no tail to patch.
		s.checkpointIndex(e, true)
		e.reloadMu.Unlock()
		if err != nil {
			s.log.Warn("ingest flush failed", "dataset", e.name, "err", err)
		}
		if err := e.ing.log.Sync(); err != nil {
			s.log.Warn("ingest final fsync failed", "dataset", e.name, "err", err)
		}
	}
}

// resetIngestLocked discards e's WAL and starts a fresh one. The reload
// path calls it after swapping in the rebuilt source file: a reload
// declares the file authoritative, so previously ingested rows — published
// or still pending — are intentionally discarded rather than replayed on
// top of data that no longer matches them. Caller holds e.reloadMu.
func (s *Server) resetIngestLocked(e *entry) error {
	ing := e.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if err := ing.log.Remove(); err != nil {
		return err
	}
	fresh, _, err := wal.Open(s.walDir(e.name), s.walOptions())
	if err != nil {
		// The old log is gone and no new one opened: appends now fail
		// (ErrClosed) instead of acking rows nothing persists.
		return err
	}
	ing.log = fresh
	ing.pending = nil
	ing.logged, ing.published = 0, 0
	return nil
}
