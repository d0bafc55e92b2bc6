package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// waitUntil polls cond for up to 15s (follower sync is asynchronous).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// listDatasets fetches a server's GET /v1/datasets rows by name.
func listDatasets(t *testing.T, url string) map[string]server.DatasetInfo {
	t.Helper()
	resp, err := http.Get(url + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]server.DatasetInfo, len(body.Datasets))
	for _, d := range body.Datasets {
		out[d.Name] = d
	}
	return out
}

func TestEpochEndpoint(t *testing.T) {
	dir := t.TempDir()
	ref := tkd.GenerateIND(400, 4, 20, 0.2, 21)
	csv := filepath.Join(dir, "d.csv")
	writeCSV(t, ref, csv)
	s := server.New(server.Config{})
	defer s.Close()
	if err := s.LoadCSVFile("d", csv, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/datasets/d/epoch")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET epoch: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("X-TKD-Epoch") == "" || resp.Header.Get("X-TKD-Fingerprint") == "" {
		t.Fatalf("epoch/fingerprint headers missing: %v", resp.Header)
	}
	fresh, _, err := tkd.ImportEpoch(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("served stream does not import: %v", err)
	}
	if fresh.Fingerprint() != ref.Fingerprint() {
		t.Fatal("served stream carries different bytes than the source")
	}

	// Conditional poll: presenting the current fingerprint answers 304 with
	// no body.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/d/epoch", nil)
	req.Header.Set("X-TKD-Have-Fingerprint", resp.Header.Get("X-TKD-Fingerprint"))
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(cond.Body)
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: HTTP %d, want 304", cond.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried %d body bytes", len(body))
	}
	if cond.Header.Get("X-TKD-Epoch") != resp.Header.Get("X-TKD-Epoch") {
		t.Fatal("304 lost the epoch header")
	}

	missing, err := http.Get(ts.URL + "/v1/datasets/nope/epoch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, missing.Body)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset: HTTP %d, want 404", missing.StatusCode)
	}
}

func TestFollowerBootstrapsFromLeader(t *testing.T) {
	dir := t.TempDir()
	ref := tkd.GenerateIND(500, 4, 20, 0.2, 31)
	csv := filepath.Join(dir, "d.csv")
	writeCSV(t, ref, csv)

	leader := server.New(server.Config{})
	defer leader.Close()
	if err := leader.LoadCSVFile("d", csv, false); err != nil {
		t.Fatal(err)
	}
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fol := server.New(server.Config{Follow: lts.URL, FollowInterval: 5 * time.Millisecond})
	defer fol.Close()
	fts := httptest.NewServer(fol)
	defer fts.Close()

	// The follower discovers, fetches and registers the dataset on its own.
	waitUntil(t, "follower resident", func() bool {
		d, ok := listDatasets(t, fts.URL)["d"]
		return ok && d.Followed && d.LeaderEpoch > 0
	})
	leaderInfo := listDatasets(t, lts.URL)["d"]
	folInfo := listDatasets(t, fts.URL)["d"]
	if folInfo.Epoch != leaderInfo.Epoch || folInfo.LeaderEpoch != leaderInfo.Epoch {
		t.Fatalf("follower epoch %d (leader_epoch %d), leader %d — not in lockstep",
			folInfo.Epoch, folInfo.LeaderEpoch, leaderInfo.Epoch)
	}

	want, err := ref.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	got, code := postQuery(t, fts.URL, server.QueryRequest{Dataset: "d", K: 5})
	if code != http.StatusOK {
		t.Fatalf("follower query: HTTP %d", code)
	}
	if len(got.Items) != len(want.Items) {
		t.Fatalf("follower answered %d items, want %d", len(got.Items), len(want.Items))
	}
	for i, it := range want.Items {
		if got.Items[i].ID != it.ID || got.Items[i].Score != it.Score {
			t.Fatalf("follower answer diverges at rank %d: %+v vs %+v", i+1, got.Items[i], it)
		}
	}

	// The index rode the epoch stream: the follower never built one, and
	// the sync counters show the applied epoch.
	metrics := fetchMetrics(t, fts.URL)
	for _, want := range []string{
		"tkd_index_builds_total 0",
		"tkd_follower_epoch_lag{dataset=\"d\"} 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("follower /metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "tkd_follower_syncs_total 0\n") {
		t.Error("follower /metrics reports zero syncs after a bootstrap")
	}

	// Steady state is conditional: after convergence the poll loop must not
	// keep re-importing the same epoch.
	time.Sleep(50 * time.Millisecond)
	if after := listDatasets(t, fts.URL)["d"]; after.Epoch != folInfo.Epoch {
		t.Fatalf("follower epoch moved %d -> %d with an idle leader", folInfo.Epoch, after.Epoch)
	}
}

// TestFollowerRollingReloadE2E is the acceptance test of the follower
// protocol: a leader serving a dataset sharded across itself and two
// followers (each shard a leader+follower replica pair) is reloaded under
// concurrent query load. The followers must converge through the epoch
// stream alone, no query may fail at any point, post-convergence traffic
// must be free of stale-replica retries, and the final answers must be
// byte-identical to a fresh unsharded run over the new file.
func TestFollowerRollingReloadE2E(t *testing.T) {
	dir := t.TempDir()
	v1 := tkd.GenerateIND(1200, 4, 20, 0.3, 41)
	csv := filepath.Join(dir, "big.csv")
	writeCSV(t, v1, csv)

	// The leader's shard topology needs the follower URLs and the followers
	// need the leader's, so all three listeners are created first, delegating
	// to servers installed afterwards (503 until then — the follower loop
	// just retries).
	var leaderH, f1H, f2H atomic.Pointer[server.Server]
	serveVia := func(p *atomic.Pointer[server.Server]) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if s := p.Load(); s != nil {
				s.ServeHTTP(w, r)
				return
			}
			http.Error(w, "starting up", http.StatusServiceUnavailable)
		}))
	}
	lts, f1ts, f2ts := serveVia(&leaderH), serveVia(&f1H), serveVia(&f2H)
	defer lts.Close()
	defer f1ts.Close()
	defer f2ts.Close()

	pol := fastPolicy()
	leader := server.New(server.Config{
		Shards:         2,
		ShardPeers:     []string{lts.URL + "|" + f1ts.URL, lts.URL + "|" + f2ts.URL},
		ShardPolicy:    &pol,
		HealthInterval: 5 * time.Millisecond,
	})
	defer leader.Close()
	leaderH.Store(leader)
	f1 := server.New(server.Config{Follow: lts.URL, FollowInterval: 5 * time.Millisecond, IndexDir: filepath.Join(dir, "ixc1")})
	defer f1.Close()
	f1H.Store(f1)
	f2 := server.New(server.Config{Follow: lts.URL, FollowInterval: 5 * time.Millisecond, IndexDir: filepath.Join(dir, "ixc2")})
	defer f2.Close()
	f2H.Store(f2)

	if err := leader.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	leaderEpoch := func() uint64 { return listDatasets(t, lts.URL)["big"].Epoch }
	converged := func(url string, epoch uint64) bool {
		d, ok := listDatasets(t, url)["big"]
		return ok && d.Followed && d.Epoch == epoch && d.LeaderEpoch == epoch
	}
	e1 := leaderEpoch()
	waitUntil(t, "followers bootstrapped", func() bool {
		return converged(f1ts.URL, e1) && converged(f2ts.URL, e1)
	})

	// Concurrent load against the leader for the whole rolling reload.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		failures atomic.Int64
		firstErr atomic.Value
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(`{"dataset":"big","k":5}`)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(lts.URL+"/v1/datasets/big/query", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("transport: %v", err))
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, b))
				}
			}
		}()
	}

	// Roll the fleet: rewrite the source file and reload the leader. The
	// followers must pick the new epoch up over the stream, unprompted.
	v2 := tkd.GenerateIND(1200, 4, 20, 0.3, 42)
	writeCSV(t, v2, csv)
	resp, err := http.Post(lts.URL+"/v1/datasets/big/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: HTTP %d: %s", resp.StatusCode, rb)
	}
	e2 := leaderEpoch()
	if e2 <= e1 {
		t.Fatalf("reload did not advance the leader epoch: %d -> %d", e1, e2)
	}
	waitUntil(t, "followers converged on the reloaded epoch", func() bool {
		return converged(f1ts.URL, e2) && converged(f2ts.URL, e2)
	})

	// Give the health probes a few rounds to re-admit the followers, then
	// demand steady state: traffic with zero stale-replica retries.
	waitUntil(t, "all replica breakers closed", func() bool {
		m := fetchMetrics(t, lts.URL)
		for _, line := range strings.Split(m, "\n") {
			if strings.HasPrefix(line, "tkd_shard_breaker_state{") && !strings.HasSuffix(line, " 0") {
				return false
			}
		}
		return true
	})
	const retries = `tkd_shard_retries_total{dataset="big"}`
	before := metricValue(t, fetchMetrics(t, lts.URL), retries)
	for i := 0; i < 40; i++ {
		if _, code := postQuery(t, lts.URL, server.QueryRequest{Dataset: "big", K: 5}); code != http.StatusOK {
			t.Fatalf("steady-state query %d: HTTP %d", i, code)
		}
	}
	if d := metricValue(t, fetchMetrics(t, lts.URL), retries) - before; d != 0 {
		t.Errorf("%v stale/retry scatter calls after convergence, want 0", d)
	}

	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d queries failed during the rolling reload (first: %v)", n, firstErr.Load())
	}

	// Exactness: leader and both followers answer the new file byte-identically
	// to a fresh unsharded run.
	want, err := v2.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{lts.URL, f1ts.URL, f2ts.URL} {
		got, code := postQuery(t, url, server.QueryRequest{Dataset: "big", K: 5})
		if code != http.StatusOK {
			t.Fatalf("final query on %s: HTTP %d", url, code)
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("%s answered %d items, want %d", url, len(got.Items), len(want.Items))
		}
		for i, it := range want.Items {
			g := got.Items[i]
			if g.Index != it.Index || g.ID != it.ID || g.Score != it.Score {
				t.Fatalf("%s diverges from the fresh unsharded run at rank %d: %+v vs %+v", url, i+1, g, it)
			}
		}
	}
}

// TestFollowerMixedVersionFailsClosed: every change of the epoch stream's
// format moved its magic, so a leader and a follower from different builds
// never exchange a byte they would misread. A follower that converged on a
// same-build leader and then meets an older one — a TKDEPO2 full stream, a
// TKDEPD2 delta, a TKDEPO1 full stream — counts typed version errors and
// keeps serving the epoch it has; and what this build sends starts with a
// magic an older follower's reader reads as version skew.
func TestFollowerMixedVersionFailsClosed(t *testing.T) {
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("..", "bitmapidx", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	current, old := read("golden_epoch_v3_adaptive.bin"), read("golden_epoch_adaptive.bin")
	v1 := bytes.Clone(old)
	v1[6] = '1'
	currentFP := fmt.Sprintf("%016x", binary.LittleEndian.Uint64(current[32:]))

	// The leader fixture: phase 0 is this build (serves the current stream at
	// epoch 1, answers conditional polls); phases 1–3 are older builds that
	// moved on to epoch 2 and send a TKDEPO2 full stream, a TKDEPD2 delta and
	// a TKDEPO1 full stream.
	var phase atomic.Int32
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/datasets":
			fmt.Fprint(w, `{"datasets":[{"name":"g"}]}`)
		case "/v1/datasets/g/epoch":
			if phase.Load() == 0 {
				w.Header().Set("X-TKD-Epoch", "1")
				w.Header().Set("X-TKD-Fingerprint", currentFP)
				if r.Header.Get("X-TKD-Have-Fingerprint") == currentFP {
					w.WriteHeader(http.StatusNotModified)
					return
				}
				w.Write(current)
				return
			}
			w.Header().Set("X-TKD-Epoch", "2")
			w.Header().Set("X-TKD-Fingerprint", fmt.Sprintf("%016x", binary.LittleEndian.Uint64(old[16:])))
			switch phase.Load() {
			case 1:
				w.Write(old)
			case 2:
				w.Header().Set("X-TKD-Delta", "1")
				w.Write(append([]byte("TKDEPD2\n"), make([]byte, 64)...))
			default:
				w.Write(v1)
			}
		default:
			http.NotFound(w, r)
		}
	}))
	defer leader.Close()

	logs := &logCapture{}
	fol := server.New(server.Config{Follow: leader.URL, FollowInterval: 5 * time.Millisecond, Logger: slog.New(logs)})
	defer fol.Close()
	fts := httptest.NewServer(fol)
	defer fts.Close()
	waitUntil(t, "follower converged on the same-build leader", func() bool {
		d, ok := listDatasets(t, fts.URL)["g"]
		return ok && d.Followed && d.LeaderEpoch == 1
	})
	before, code := postQuery(t, fts.URL, server.QueryRequest{Dataset: "g", K: 5})
	if code != http.StatusOK {
		t.Fatalf("follower query: HTTP %d", code)
	}

	versionErrors := func() int {
		n := 0
		for _, v := range logs.attr("follower: sync failed", "err") {
			if err, ok := v.Any().(error); ok && errors.Is(err, tkd.ErrStreamVersion) {
				n++
			}
		}
		return n
	}
	for i, what := range []string{"TKDEPO2 full stream", "TKDEPD2 delta", "TKDEPO1 full stream"} {
		seen := versionErrors()
		phase.Store(int32(i + 1))
		waitUntil(t, "typed error on an old leader's "+what, func() bool { return versionErrors() > seen })
		info := listDatasets(t, fts.URL)["g"]
		if info.Epoch != 1 || info.LeaderEpoch != 1 || info.LeaderSeen != 2 {
			t.Fatalf("old leader's %s: follower at epoch %d (applied %d, seen %d), want 1 / 1 / 2", what, info.Epoch, info.LeaderEpoch, info.LeaderSeen)
		}
		after, code := postQuery(t, fts.URL, server.QueryRequest{Dataset: "g", K: 5})
		if code != http.StatusOK || !reflect.DeepEqual(after.Items, before.Items) {
			t.Fatalf("old leader's %s: follower stopped serving its last epoch (HTTP %d)", what, code)
		}
	}
	if got := metricValue(t, getBody(t, fts.URL+"/metrics"), "tkd_follower_sync_errors_total"); got < 3 {
		t.Fatalf("tkd_follower_sync_errors_total = %v, want the refused syncs counted", got)
	}

	// The reverse: an older follower reads every 200 body as a full stream,
	// whose reader takes the same family under another version byte as
	// version skew. What this build's leader puts on the wire — fetched from
	// the follower's own epoch endpoint — is exactly that to a TKDEPO2 reader.
	resp, err := http.Get(fts.URL + "/v1/datasets/g/epoch")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.HasPrefix(body, []byte("TKDEPO3\n")) || !bytes.Equal(body[:6], old[:6]) || body[7] != old[7] {
		t.Fatalf("this build's stream starts %q (err %v); want TKDEPO3, which a TKDEPO2 reader refuses as version skew", body[:min(8, len(body))], err)
	}
}

// TestFollowerRefusesDeltaWithoutReplica: the follower branches on the base a
// stream names, so a leader can send a delta from a real base to a follower
// that holds no replica to apply it to. That is a counted sync error — not a
// crash of the poll goroutine — and registers nothing.
func TestFollowerRefusesDeltaWithoutReplica(t *testing.T) {
	src := tkd.GenerateIND(50, 3, 10, 0.2, 3)
	src.PrepareFor(tkd.IBIG)
	base, baseFP := src.Epoch(), src.Fingerprint()
	if _, err := src.AppendRows([]tkd.Row{{ID: "n", Values: []float64{1, 2, 3}}}); err != nil {
		t.Fatal(err)
	}
	x, ok := src.ExportEpochDelta(base, baseFP)
	if !ok {
		t.Fatal("no delta from the source's base")
	}
	var delta bytes.Buffer
	if err := x.Write(&delta); err != nil {
		t.Fatal(err)
	}
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/datasets" {
			fmt.Fprint(w, `{"datasets":[{"name":"g"}]}`)
			return
		}
		w.Write(delta.Bytes())
	}))
	defer leader.Close()
	fol := server.New(server.Config{Follow: leader.URL, FollowInterval: 5 * time.Millisecond})
	defer fol.Close()
	fts := httptest.NewServer(fol)
	defer fts.Close()
	waitUntil(t, "the refused deltas counted", func() bool {
		return metricValue(t, getBody(t, fts.URL+"/metrics"), "tkd_follower_sync_errors_total") >= 2
	})
	if _, ok := listDatasets(t, fts.URL)["g"]; ok {
		t.Fatal("a delta with no replica to apply it to registered a dataset")
	}
}
