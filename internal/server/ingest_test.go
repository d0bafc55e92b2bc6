package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/waltest"
	"repro/tkd"
)

// ingestDirs is the on-disk layout one ingest test uses: the source CSV,
// the WAL directory and the persisted-index directory, all under one temp
// root so a "restart" is just a second server over the same paths.
type ingestDirs struct {
	csv, walDir, indexDir string
}

func newIngestDirs(t testing.TB, ds *tkd.Dataset) ingestDirs {
	t.Helper()
	root := t.TempDir()
	d := ingestDirs{
		csv:      filepath.Join(root, "d.csv"),
		walDir:   filepath.Join(root, "wal"),
		indexDir: filepath.Join(root, "index"),
	}
	writeCSV(t, ds, d.csv)
	return d
}

func ingestConfig(d ingestDirs, publish time.Duration) server.Config {
	return server.Config{
		WALDir:          d.walDir,
		IndexDir:        d.indexDir,
		Fsync:           wal.SyncAlways,
		PublishInterval: publish,
	}
}

// startIngestServer builds a server over the dirs and registers the CSV.
func startIngestServer(t testing.TB, cfg server.Config, d ingestDirs) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	if err := s.LoadCSVFile("d", d.csv, false); err != nil {
		s.Close()
		t.Fatalf("loading dataset: %v", err)
	}
	ts := httptest.NewServer(s)
	return s, ts
}

func fptr(v float64) *float64 { return &v }

// appendRows posts rows and returns the decoded response (fatal on non-200).
func appendRows(t *testing.T, url string, rows []server.AppendRow) server.AppendResponse {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, url+"/v1/datasets/d/append", server.AppendRequest{Rows: rows})
	if code != http.StatusOK {
		t.Fatalf("append answered %d: %s", code, body)
	}
	var ar server.AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	return ar
}

func datasetInfo(t *testing.T, url string) server.DatasetInfo {
	t.Helper()
	code, body := doJSON(t, http.MethodGet, url+"/v1/datasets", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/datasets answered %d: %s", code, body)
	}
	var out struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for _, info := range out.Datasets {
		if info.Name == "d" {
			return info
		}
	}
	t.Fatalf("dataset %q not resident", "d")
	return server.DatasetInfo{}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testRows are the ingested objects every test appends: one fully observed,
// one with a missing dimension (null on the wire, NaN in the WAL).
func ingestTestRows() []server.AppendRow {
	return []server.AppendRow{
		{ID: "w1", Values: []*float64{fptr(1), fptr(2), fptr(3)}},
		{ID: "w2", Values: []*float64{fptr(4), nil, fptr(6)}},
		{ID: "w3", Values: []*float64{fptr(7), fptr(8), nil}},
	}
}

// applyRows replays the same rows into a reference dataset the way the
// server's publisher does, for byte-identical answer comparison.
func applyRows(t *testing.T, ds *tkd.Dataset, rows []server.AppendRow) {
	t.Helper()
	for _, r := range rows {
		vals := make([]float64, len(r.Values))
		for i, v := range r.Values {
			if v == nil {
				vals[i] = nan()
			} else {
				vals[i] = *v
			}
		}
		if err := ds.Append(r.ID, vals...); err != nil {
			t.Fatal(err)
		}
	}
}

func nan() float64 { var z float64; return z / z }

// sameAnswer asserts the server's items equal a serial TopK over ref.
func sameAnswer(t *testing.T, url string, ref *tkd.Dataset, k int) {
	t.Helper()
	qr, code := postQuery(t, url, server.QueryRequest{Dataset: "d", K: k})
	if code != http.StatusOK {
		t.Fatalf("query answered %d", code)
	}
	want, err := ref.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Items) != len(want.Items) {
		t.Fatalf("got %d items, want %d", len(qr.Items), len(want.Items))
	}
	for i, it := range want.Items {
		got := qr.Items[i]
		if got.ID != it.ID || got.Score != it.Score {
			t.Fatalf("item %d: got (%s, %d), want (%s, %d)", i, got.ID, got.Score, it.ID, it.Score)
		}
	}
}

// TestIngestAppendPublishRestart is the happy-path lifecycle: rows appended
// through the WAL become queryable on the publish cadence, and a restart
// over the same directories recovers them (checkpointed state warm-loads,
// the epoch numbering resumes) with answers byte-identical to a reference
// dataset that took the same appends in-process.
func TestIngestAppendPublishRestart(t *testing.T) {
	ref := tkd.GenerateIND(200, 3, 20, 0.2, 7)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, 10*time.Millisecond), d)

	rows := ingestTestRows()
	ar := appendRows(t, ts.URL, rows)
	if ar.Appended != len(rows) {
		t.Fatalf("appended %d, want %d", ar.Appended, len(rows))
	}
	if !ar.Durable {
		t.Fatal("fsync=always append must ack durable")
	}
	waitFor(t, "publish", func() bool { return datasetInfo(t, ts.URL).Objects == 203 })
	info := datasetInfo(t, ts.URL)
	if !info.Ingest || info.FsyncPolicy != "always" {
		t.Fatalf("dataset info misses ingest surface: %+v", info)
	}
	if info.WALAppends != int64(len(rows)) {
		t.Fatalf("wal_appends = %d, want %d", info.WALAppends, len(rows))
	}
	waitFor(t, "checkpoint", func() bool { return datasetInfo(t, ts.URL).WALLagRows == 0 })
	epochBefore := datasetInfo(t, ts.URL).Epoch

	applyRows(t, ref, rows)
	sameAnswer(t, ts.URL, ref, 10)

	ts.Close()
	s.Close()

	// Restart over the same CSV + WAL + index directories.
	s2, ts2 := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts2.Close(); s2.Close() }()
	info = datasetInfo(t, ts2.URL)
	if info.Objects != 203 {
		t.Fatalf("restart recovered %d objects, want 203", info.Objects)
	}
	if info.WALReplayedRows != int64(len(rows)) {
		t.Fatalf("wal_replayed_rows = %d, want %d", info.WALReplayedRows, len(rows))
	}
	if info.WALLagRows != 0 {
		t.Fatalf("wal_lag_rows = %d after clean restart, want 0", info.WALLagRows)
	}
	if info.Epoch < epochBefore {
		t.Fatalf("epoch went backwards across restart: %d -> %d", epochBefore, info.Epoch)
	}
	sameAnswer(t, ts2.URL, ref, 10)
}

// TestIngestCrashReplaysUnpublishedRows covers the acked-but-unpublished
// suffix: rows fsynced into the WAL but never folded into an epoch (the
// publisher never ran) must reappear after a restart.
func TestIngestCrashReplaysUnpublishedRows(t *testing.T) {
	ref := tkd.GenerateIND(150, 3, 20, 0.2, 11)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, time.Hour), d)

	rows := ingestTestRows()
	ar := appendRows(t, ts.URL, rows)
	if ar.Pending != uint64(len(rows)) {
		t.Fatalf("pending = %d, want %d", ar.Pending, len(rows))
	}
	if info := datasetInfo(t, ts.URL); info.Objects != 150 || info.WALLagRows != uint64(len(rows)) {
		t.Fatalf("before crash: objects %d lag %d, want 150 / %d", info.Objects, info.WALLagRows, len(rows))
	}
	// "Crash": tear the server down without Shutdown's flush. The rows were
	// fsynced at append time, so the WAL has them and no checkpoint covers
	// them.
	ts.Close()
	s.Close()

	s2, ts2 := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts2.Close(); s2.Close() }()
	info := datasetInfo(t, ts2.URL)
	if info.Objects != 153 {
		t.Fatalf("restart recovered %d objects, want 153", info.Objects)
	}
	if info.WALLagRows != 0 {
		t.Fatalf("recovery must republish and checkpoint the suffix, lag = %d", info.WALLagRows)
	}
	applyRows(t, ref, rows)
	sameAnswer(t, ts2.URL, ref, 10)
}

// TestIngestShutdownFlushesPending: the graceful drain publishes pending
// rows instead of dropping them, and leaves a checkpoint so the next boot
// warm-loads with nothing to republish.
func TestIngestShutdownFlushesPending(t *testing.T) {
	ref := tkd.GenerateIND(120, 3, 20, 0.2, 13)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, time.Hour), d)

	rows := ingestTestRows()
	appendRows(t, ts.URL, rows)
	ts.Close()
	s.Shutdown()

	s2, ts2 := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts2.Close(); s2.Close() }()
	info := datasetInfo(t, ts2.URL)
	if info.Objects != 123 {
		t.Fatalf("flushed rows lost: %d objects, want 123", info.Objects)
	}
	if info.WALLagRows != 0 {
		t.Fatalf("wal_lag_rows = %d after a flushed shutdown, want 0", info.WALLagRows)
	}
	applyRows(t, ref, rows)
	sameAnswer(t, ts2.URL, ref, 10)
}

// TestIngestValidation: malformed appends are rejected before anything is
// logged — a WAL record is an ack and must always replay.
func TestIngestValidation(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 17)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts.Close(); s.Close() }()

	cases := []struct {
		name string
		rows []server.AppendRow
	}{
		{"empty batch", nil},
		{"empty id", []server.AppendRow{{ID: "", Values: []*float64{fptr(1), fptr(2), fptr(3)}}}},
		{"wrong dim", []server.AppendRow{{ID: "x", Values: []*float64{fptr(1)}}}},
		{"all missing", []server.AppendRow{{ID: "x", Values: []*float64{nil, nil, nil}}}},
		// CSV reads a quoted "\r\n" back as "\n": followers would hash another row.
		{"id holding \\r\\n", []server.AppendRow{{ID: "a\r\nb", Values: []*float64{fptr(1), fptr(2), fptr(3)}}}},
	}
	for _, tc := range cases {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/append", server.AppendRequest{Rows: tc.rows})
		if code != http.StatusBadRequest {
			t.Errorf("%s: answered %d (%s), want 400", tc.name, code, body)
		}
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/nope/append",
		server.AppendRequest{Rows: ingestTestRows()}); code != http.StatusNotFound {
		t.Errorf("unknown dataset answered %d, want 404", code)
	}
	if info := datasetInfo(t, ts.URL); info.WALAppends != 0 {
		t.Fatalf("rejected appends reached the WAL: %d records", info.WALAppends)
	}
}

// TestIngestDisabledWithoutWALDir: no -waldir means no ingest, answered as
// a 409 conflict, not a 404 (the dataset exists, the capability doesn't).
func TestIngestDisabledWithoutWALDir(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/ac/append",
		server.AppendRequest{Rows: []server.AppendRow{{ID: "x", Values: []*float64{fptr(1), fptr(2), fptr(3), fptr(4)}}}})
	if code != http.StatusConflict {
		t.Fatalf("append without WAL answered %d (%s), want 409", code, body)
	}
}

// TestIngestEvictRemovesWAL: DELETE removes the dataset's WAL segments, and
// re-registering the same name starts from the source file alone — evicted
// rows must not resurrect.
func TestIngestEvictRemovesWAL(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 19)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts.Close(); s.Close() }()

	appendRows(t, ts.URL, ingestTestRows())
	walPath := filepath.Join(d.walDir, "d.wal")
	if _, err := os.Stat(walPath); err != nil {
		t.Fatalf("wal dir missing before evict: %v", err)
	}
	if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/d", nil); code != http.StatusOK {
		t.Fatalf("evict answered %d: %s", code, body)
	}
	if _, err := os.Stat(walPath); !os.IsNotExist(err) {
		t.Fatalf("wal dir survives eviction (stat err = %v)", err)
	}
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets",
		server.RegisterRequest{Name: "d", Path: d.csv}); code != http.StatusCreated {
		t.Fatalf("re-register answered %d: %s", code, body)
	}
	if info := datasetInfo(t, ts.URL); info.Objects != 100 {
		t.Fatalf("re-registered dataset has %d objects, want the source file's 100", info.Objects)
	}
}

// TestIngestReloadResetsWAL: a reload declares the source file
// authoritative — ingested rows are discarded and the WAL restarts empty,
// so a later restart cannot replay rows on top of data they never belonged
// to.
func TestIngestReloadResetsWAL(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 23)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, 10*time.Millisecond), d)

	appendRows(t, ts.URL, ingestTestRows())
	waitFor(t, "publish", func() bool { return datasetInfo(t, ts.URL).Objects == 103 })
	if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/reload", nil); code != http.StatusOK {
		t.Fatalf("reload answered %d: %s", code, body)
	}
	if info := datasetInfo(t, ts.URL); info.Objects != 100 {
		t.Fatalf("reload kept %d objects, want the file's 100", info.Objects)
	}
	ts.Close()
	s.Close()

	s2, ts2 := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts2.Close(); s2.Close() }()
	info := datasetInfo(t, ts2.URL)
	if info.Objects != 100 || info.WALReplayedRows != 0 {
		t.Fatalf("restart after reload: %d objects, %d replayed; want 100 / 0",
			info.Objects, info.WALReplayedRows)
	}
}

// TestIngestFsyncFailurePoisons: an injected fsync error fails the append
// with a 500 and every later append keeps failing — the server never acks
// rows whose durability the kernel disowned.
func TestIngestFsyncFailurePoisons(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 29)
	d := newIngestDirs(t, ref)
	cfg := ingestConfig(d, time.Hour)
	cfg.WALFS = waltest.NewChaos(waltest.ChaosConfig{Seed: 1, SyncErrP: 1})
	s, ts := startIngestServer(t, cfg, d)
	defer func() { ts.Close(); s.Close() }()

	for i := 0; i < 2; i++ {
		code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/append",
			server.AppendRequest{Rows: ingestTestRows()})
		if code != http.StatusInternalServerError {
			t.Fatalf("append %d with failing fsync answered %d (%s), want 500", i, code, body)
		}
	}
}

// TestFollowerRejectsLocalMutations: every local mutation of a
// leader-managed dataset — append, reload, and re-registering after a local
// delete — answers 409 with the leader's URL in the error body.
func TestFollowerRejectsLocalMutations(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 31)
	d := newIngestDirs(t, ref)
	leader, lts := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { lts.Close(); leader.Close() }()

	fol := server.New(server.Config{Follow: lts.URL, FollowInterval: 10 * time.Millisecond})
	fts := httptest.NewServer(fol)
	defer func() { fts.Close(); fol.Close() }()
	waitFor(t, "follower sync", func() bool {
		code, body := doJSON(t, http.MethodGet, fts.URL+"/v1/datasets", nil)
		if code != http.StatusOK {
			return false
		}
		var out struct {
			Datasets []server.DatasetInfo `json:"datasets"`
		}
		return json.Unmarshal(body, &out) == nil && len(out.Datasets) == 1 && out.Datasets[0].Followed
	})

	assert409 := func(what, method, path string, body any) {
		t.Helper()
		code, raw := doJSON(t, method, fts.URL+path, body)
		if code != http.StatusConflict {
			t.Fatalf("%s answered %d (%s), want 409", what, code, raw)
		}
		var er struct {
			Error server.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatal(err)
		}
		if er.Error.Code != "follower_readonly" {
			t.Fatalf("%s: code = %q, want follower_readonly", what, er.Error.Code)
		}
		if er.Error.Leader != lts.URL {
			t.Fatalf("%s: leader = %q, want %q", what, er.Error.Leader, lts.URL)
		}
	}
	assert409("append", http.MethodPost, "/v1/datasets/d/append", server.AppendRequest{Rows: ingestTestRows()})
	assert409("reload", http.MethodPost, "/v1/datasets/d/reload", nil)

	// Delete-then-recreate: the local DELETE is allowed (an operator may
	// shed a replica), but the name stays leader-managed, so a local file
	// cannot take it over.
	if code, body := doJSON(t, http.MethodDelete, fts.URL+"/v1/datasets/d", nil); code != http.StatusOK {
		t.Fatalf("local delete answered %d: %s", code, body)
	}
	assert409("re-register", http.MethodPost, "/v1/datasets", server.RegisterRequest{Name: "d", Path: d.csv})
}

// TestIngestRejectedOnShardedServer: shard coordinators have no cross-shard
// commit, so appends are refused outright rather than half-applied.
func TestIngestRejectedOnShardedServer(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 37)
	d := newIngestDirs(t, ref)
	cfg := ingestConfig(d, time.Hour)
	cfg.Shards = 2
	s, ts := startIngestServer(t, cfg, d)
	defer func() { ts.Close(); s.Close() }()
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/append",
		server.AppendRequest{Rows: ingestTestRows()})
	if code != http.StatusConflict {
		t.Fatalf("sharded append answered %d (%s), want 409", code, body)
	}
}

// batchOf builds n appendable rows inside GenerateIND(…, c=20)'s value grid.
func batchOf(tag string, n int) []server.AppendRow {
	rows := make([]server.AppendRow, n)
	for i := range rows {
		v := func(x int) *float64 { return fptr(float64(x % 19)) }
		rows[i] = server.AppendRow{ID: fmt.Sprintf("%s%03d", tag, i), Values: []*float64{v(i * 7), v(i*11 + 3), v(i*13 + 5)}}
		if i%4 == 1 {
			rows[i].Values[i%3] = nil
		}
	}
	return rows
}

// TestIngestBatchFsyncsOnce: one append request is one WAL batch — one fsync
// under -fsync always, whatever the row count, and none under -fsync none —
// and the ack still counts every row.
func TestIngestBatchFsyncsOnce(t *testing.T) {
	for _, tc := range []struct {
		policy  wal.Policy
		fsyncs  int64
		durable bool
	}{{wal.SyncAlways, 1, true}, {wal.SyncNone, 0, false}} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			d := newIngestDirs(t, tkd.GenerateIND(100, 3, 20, 0.2, 41))
			cfg := ingestConfig(d, time.Hour) // no publish: its checkpoint fsyncs too
			cfg.Fsync = tc.policy
			s, ts := startIngestServer(t, cfg, d)
			defer func() { ts.Close(); s.Close() }()
			for req := int64(1); req <= 3; req++ {
				ar := appendRows(t, ts.URL, batchOf(fmt.Sprintf("r%d-", req), 20))
				if ar.Appended != 20 || ar.Durable != tc.durable || ar.Pending != uint64(20*req) {
					t.Fatalf("request %d acked %+v", req, ar)
				}
				if got := sumMetric(t, getBody(t, ts.URL+"/metrics"), "tkd_wal_fsyncs_total"); got != tc.fsyncs*req {
					t.Fatalf("after %d 20-row requests: %d fsyncs, want %d", req, got, tc.fsyncs*req)
				}
			}
			if info := datasetInfo(t, ts.URL); info.WALAppends != 60 {
				t.Fatalf("wal_appends = %d, want 60", info.WALAppends)
			}
		})
	}
}

// TestIngestBatchWriteFailureAcksNothing: a write that fails mid-batch (the
// WALFS fault hook persists a proper prefix of the bytes, then errors) fails
// the whole request — nothing acked, nothing pending, nothing published —
// and the restart replays whatever whole frames reached the file: a prefix
// of the batch, in order, and never the full batch.
func TestIngestBatchWriteFailureAcksNothing(t *testing.T) {
	ref := tkd.GenerateIND(100, 3, 20, 0.2, 43)
	d := newIngestDirs(t, ref)
	cfg := ingestConfig(d, 5*time.Millisecond)
	cfg.WALFS = waltest.NewChaos(waltest.ChaosConfig{Seed: 5, ShortWriteP: 1})
	s, ts := startIngestServer(t, cfg, d)
	rows := batchOf("torn", 20)
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/append", server.AppendRequest{Rows: rows})
	if code != http.StatusInternalServerError {
		t.Fatalf("append through a failing write answered %d (%s), want 500", code, body)
	}
	if env := decodeEnvelope(t, "torn batch", body); env.Code != "wal_failed" {
		t.Fatalf("error code %q, want wal_failed", env.Code)
	}
	time.Sleep(30 * time.Millisecond) // several publish ticks
	if info := datasetInfo(t, ts.URL); info.Objects != 100 || info.WALAppends != 0 || info.WALLagRows != 0 {
		t.Fatalf("after the failed batch: %d objects, %d wal appends, lag %d; want 100 / 0 / 0", info.Objects, info.WALAppends, info.WALLagRows)
	}
	ts.Close()
	s.Close()

	s2, ts2 := startIngestServer(t, ingestConfig(d, time.Hour), d)
	defer func() { ts2.Close(); s2.Close() }()
	info := datasetInfo(t, ts2.URL)
	replayed := int(info.WALReplayedRows)
	if replayed >= len(rows) || info.Objects != 100+replayed {
		t.Fatalf("restart replayed %d of the %d unacked rows into %d objects; want a proper prefix on top of 100", replayed, len(rows), info.Objects)
	}
	t.Logf("the torn batch left %d whole frames behind", replayed)
	applyRows(t, ref, rows[:replayed])
	sameAnswer(t, ts2.URL, ref, 10)
}

// logCapture collects the server's structured log records by message.
type logCapture struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }
func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r.Clone())
	return nil
}

// attr returns attribute key of every record with the given message.
func (c *logCapture) attr(msg, key string) []slog.Value {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []slog.Value
	for _, r := range c.recs {
		if r.Message != msg {
			continue
		}
		r.Attrs(func(a slog.Attr) bool {
			if a.Key == key {
				out = append(out, a.Value)
			}
			return true
		})
	}
	return out
}

func (c *logCapture) intAttr(msg, key string) []int64 {
	var out []int64
	for _, v := range c.attr(msg, key) {
		out = append(out, v.Int64())
	}
	return out
}

// TestIngestRestartPatchesFromCheckpoint: the index file is a checkpoint of
// a prefix and the WAL is its delta log. Publishes that stay within an eighth
// of the rows last saved do not rewrite the file; after a crash (Close
// without Shutdown) the reboot loads the checkpoint, patches exactly the rows
// logged since, builds nothing, and serves the reference answers and
// fingerprint. A checkpoint whose prefix does not match the data in hand is a
// miss and rebuilds.
func TestIngestRestartPatchesFromCheckpoint(t *testing.T) {
	ref := tkd.GenerateIND(400, 3, 20, 0.2, 47)
	d := newIngestDirs(t, ref)
	s, ts := startIngestServer(t, ingestConfig(d, 5*time.Millisecond), d)
	s.WaitIndexWrites() // the boot writes its index after the dataset serves
	ixFile := filepath.Join(d.indexDir, "d.tkdix")
	atBoot, err := os.ReadFile(ixFile)
	if err != nil {
		t.Fatalf("no index checkpoint after the cold boot: %v", err)
	}

	// Three publishes, 36 rows: 436 < 400·9/8 = 450, so no rewrite is due.
	const publishes, perPublish = 3, 12
	var all []server.AppendRow
	for p := 0; p < publishes; p++ {
		rows := batchOf(fmt.Sprintf("p%d-", p), perPublish)
		all = append(all, rows...)
		appendRows(t, ts.URL, rows)
		waitFor(t, "publish", func() bool {
			info := datasetInfo(t, ts.URL)
			return info.Objects == 400+len(all) && info.WALLagRows == 0
		})
	}
	if got := datasetInfo(t, ts.URL).DeltaPublishes; got != publishes {
		t.Fatalf("%d delta publishes, want %d", got, publishes)
	}
	if now, err := os.ReadFile(ixFile); err != nil || !bytes.Equal(now, atBoot) {
		t.Fatalf("the index file was rewritten by a publish inside the 9/8 bound (err %v)", err)
	}
	ts.Close()
	s.Close() // a crash as far as the index file goes: no flush, no final save

	applyRows(t, ref, all)
	logs := &logCapture{}
	cfg := ingestConfig(d, 5*time.Millisecond)
	cfg.Logger = slog.New(logs)
	s2, ts2 := startIngestServer(t, cfg, d)
	metrics := getBody(t, ts2.URL+"/metrics")
	if builds, warm := sumMetric(t, metrics, "tkd_index_builds_total"), sumMetric(t, metrics, "tkd_index_warm_loads_total"); builds != 0 || warm != 1 {
		t.Fatalf("reboot over checkpoint + WAL: %d index builds, %d warm loads; want 0 / 1", builds, warm)
	}
	if patched := logs.intAttr("index checkpoint loaded", "patched_rows"); len(patched) != 1 || patched[0] != int64(len(all)) {
		t.Fatalf("reboot patched %v rows behind the checkpoint, want [%d] (the WAL's tail)", patched, len(all))
	}
	if info := datasetInfo(t, ts2.URL); info.Objects != ref.Len() || info.WALLagRows != 0 {
		t.Fatalf("reboot serves %d objects with lag %d, want %d / 0", info.Objects, info.WALLagRows, ref.Len())
	}
	if got, want := epochFingerprint(t, ts2.URL), fmt.Sprintf("%016x", ref.Fingerprint()); got != want {
		t.Fatalf("rebooted dataset hashes to %s, the reference rows to %s", got, want)
	}
	sameAnswer(t, ts2.URL, ref, 10)
	if now, err := os.ReadFile(ixFile); err != nil || !bytes.Equal(now, atBoot) {
		t.Fatalf("a warm reboot rewrote the checkpoint it had just loaded (err %v)", err)
	}

	// The file still covers 400 rows. The publish that takes the data to
	// 456 ≥ 400·9/8 rewrites it; the next one (461 < 456·9/8) does not.
	fileChanged := func(since []byte) func() bool {
		return func() bool {
			now, err := os.ReadFile(ixFile)
			return err == nil && !bytes.Equal(now, since)
		}
	}
	appendRows(t, ts2.URL, batchOf("big-", 20))
	applyRows(t, ref, batchOf("big-", 20))
	waitFor(t, "checkpoint rewrite at 9/8 growth", fileChanged(atBoot))
	at456, err := os.ReadFile(ixFile)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, ts2.URL, batchOf("few-", 5))
	applyRows(t, ref, batchOf("few-", 5))
	waitFor(t, "publish", func() bool { // lag 0: the publish ran to its end, index checkpoint decision included
		info := datasetInfo(t, ts2.URL)
		return info.Objects == 461 && info.WALLagRows == 0
	})
	if fileChanged(at456)() {
		t.Fatal("a 5-row publish rewrote a checkpoint that covers 456 of 461 rows")
	}
	ts2.Close()
	s2.Shutdown() // the drain saves whatever the growth, so the next boot has no tail
	if !fileChanged(at456)() {
		t.Fatal("the drain left a checkpoint behind the data")
	}
	logs3 := &logCapture{}
	cfg.Logger = slog.New(logs3)
	s3, ts3 := startIngestServer(t, cfg, d)
	if patched := logs3.intAttr("index checkpoint loaded", "patched_rows"); len(patched) != 1 || patched[0] != 0 {
		t.Fatalf("boot after a drain patched %v rows, want [0]", patched)
	}
	sameAnswer(t, ts3.URL, ref, 10)
	ts3.Close()
	s3.Close()

	// A checkpoint of other rows under this name: a miss, a rebuild, the
	// reference answers all the same.
	otherDirs := newIngestDirs(t, tkd.GenerateIND(400, 3, 20, 0.2, 48))
	so, tso := startIngestServer(t, ingestConfig(otherDirs, time.Hour), otherDirs)
	tso.Close()
	so.Close()
	foreign, err := os.ReadFile(filepath.Join(otherDirs.indexDir, "d.tkdix"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ixFile, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	s4, ts4 := startIngestServer(t, cfg, d)
	defer func() { ts4.Close(); s4.Close() }()
	metrics = getBody(t, ts4.URL+"/metrics")
	if builds, warm := sumMetric(t, metrics, "tkd_index_builds_total"), sumMetric(t, metrics, "tkd_index_warm_loads_total"); builds != 1 || warm != 0 {
		t.Fatalf("foreign checkpoint: %d index builds, %d warm loads; want 1 / 0", builds, warm)
	}
	if errs := sumMetric(t, metrics, "tkd_index_cache_errors_total"); errs != 0 {
		t.Fatalf("a checkpoint of other rows is a miss, not an error; counted %d", errs)
	}
	sameAnswer(t, ts4.URL, ref, 10)
}
