package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/server"
	"repro/tkd"
)

// shardedFixture writes a CSV and returns its path; the anti-correlated
// shape with a high missing rate keeps enough candidates alive past
// Heuristic 1 that the τ push-down observably fires.
func shardedFixture(t *testing.T, dir string) (path string, ref *tkd.Dataset) {
	t.Helper()
	ds := tkd.GenerateAC(2500, 4, 20, 0.4, 77)
	path = filepath.Join(dir, "big.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, tkd.GenerateAC(2500, 4, 20, 0.4, 77)
}

// TestShardedServing serves one dataset split 4 ways in-process and checks:
// answers byte-identical to serial Naive ground truth (tkd's
// TestShardedCrosscheck checks all five algorithms over shards), the
// scatter-gather metrics exposed (with τ push-downs observed on IBIG), the
// reload endpoint live on a sharded entry, and per-shard index files
// enabling a warm restart with zero rebuilds.
func TestShardedServing(t *testing.T) {
	dir := t.TempDir()
	csv, ref := shardedFixture(t, dir)
	ixdir := filepath.Join(dir, "ix")

	cfg := server.Config{Shards: 4, IndexDir: ixdir}
	s := server.New(cfg)
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	for _, k := range []int{3, 16, 40} {
		checkNaive(t, ts.URL, ref, k)
	}

	// /v1/datasets reports the shard count.
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Datasets) != 1 || listing.Datasets[0].Shards != 4 {
		t.Fatalf("expected one dataset with 4 shards, got %+v", listing.Datasets)
	}

	// Scatter-gather metrics: fan-out and τ push-downs observable.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if v := metricValue(t, body, `tkd_dataset_shards{dataset="big"}`); v != 4 {
		t.Fatalf("tkd_dataset_shards = %v, want 4", v)
	}
	if v := metricValue(t, body, `tkd_shard_tau_pushdowns_total{dataset="big"}`); v == 0 {
		t.Fatal("tkd_shard_tau_pushdowns_total is zero after an IBIG run")
	}
	// In-process shards run the serial loop: no peer call to count or time
	// (TestShardedServingRemotePeers holds the peer plan to both).
	checkPeerCalls(t, body, 4, false)

	// Reload works on a sharded entry (same file: answers unchanged).
	resp, err = http.Post(ts.URL+"/v1/datasets/big/reload", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	want, _ := ref.TopK(8)
	qr, _ := postQuery(t, ts.URL, server.QueryRequest{Dataset: "big", K: 8})
	for i, it := range qr.Items {
		w := want.Items[i]
		if it.Index != w.Index || it.Score != w.Score {
			t.Fatalf("post-reload rank %d mismatch: %+v vs %+v", i+1, it, w)
		}
	}

	// The index dir holds one file per shard...
	files, err := filepath.Glob(filepath.Join(ixdir, "*%shard-*.tkdix"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("expected 4 per-shard index files, found %d: %v", len(files), files)
	}
	ts.Close()
	s.Close()

	// ...and a warm restart loads all of them, building nothing.
	s2 := server.New(cfg)
	if err := s2.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	body = string(raw)
	warm := regexp.MustCompile(`(?m)^tkd_index_warm_loads_total (\d+)$`).FindStringSubmatch(body)
	builds := regexp.MustCompile(`(?m)^tkd_index_builds_total (\d+)$`).FindStringSubmatch(body)
	if warm == nil || warm[1] != "4" {
		t.Fatalf("warm restart: tkd_index_warm_loads_total = %v, want 4", warm)
	}
	if builds == nil || builds[1] != "0" {
		t.Fatalf("warm restart: tkd_index_builds_total = %v, want 0", builds)
	}
	qr, code := postQuery(t, ts2.URL, server.QueryRequest{Dataset: "big", K: 8})
	if code != http.StatusOK {
		t.Fatalf("warm-restart query status %d", code)
	}
	for i, it := range qr.Items {
		w := want.Items[i]
		if it.Index != w.Index || it.Score != w.Score {
			t.Fatalf("warm-restart rank %d mismatch: %+v vs %+v", i+1, it, w)
		}
	}
}

// TestShardedServingRemotePeers wires a coordinator tkdserver to two peer
// tkdservers over real HTTP: the peers hold the same dataset, the
// coordinator fans every shard query out to them, and answers stay
// byte-identical to serial ground truth.
func TestShardedServingRemotePeers(t *testing.T) {
	dir := t.TempDir()
	csv, ref := shardedFixture(t, dir)

	// Peers: plain tkdservers with the same dataset registered.
	var peerURLs []string
	for i := 0; i < 2; i++ {
		ps := server.New(server.Config{})
		if err := ps.LoadCSVFile("big", csv, false); err != nil {
			t.Fatal(err)
		}
		pts := httptest.NewServer(ps)
		defer pts.Close()
		defer ps.Close()
		peerURLs = append(peerURLs, pts.URL)
	}

	coord := server.New(server.Config{Shards: 4, ShardPeers: peerURLs})
	if err := coord.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord)
	defer cts.Close()
	defer coord.Close()

	for _, k := range []int{1, 9, 40} {
		checkNaive(t, cts.URL, ref, k)
	}
	body := getBody(t, cts.URL+"/metrics")
	if v := metricValue(t, body, `tkd_shard_tau_pushdowns_total{dataset="big"}`); v == 0 {
		t.Fatal("tkd_shard_tau_pushdowns_total is zero after an IBIG run")
	}
	checkPeerCalls(t, body, 4, true)
}

// checkPeerCalls holds a scrape's peer-call metrics for dataset "big" over
// shards shards: fan-out and every shard's latency histogram non-zero when
// the shards are peers, all zero when they are in-process.
func checkPeerCalls(t *testing.T, body string, shards int, peers bool) {
	t.Helper()
	if v := metricValue(t, body, `tkd_shard_fanout_total{dataset="big"}`); (v != 0) != peers {
		t.Fatalf("tkd_shard_fanout_total = %v with peers %v", v, peers)
	}
	for sh := 0; sh < shards; sh++ {
		if v := metricValue(t, body, fmt.Sprintf(`tkd_shard_latency_seconds_count{dataset="big",shard="%d"}`, sh)); (v != 0) != peers {
			t.Fatalf("shard %d latency histogram counts %v calls with peers %v", sh, v, peers)
		}
	}
}

// checkNaive queries dataset "big" at k over HTTP and holds the answer to
// ref's serial Naive top-k, item for item.
func checkNaive(t *testing.T, url string, ref *tkd.Dataset, k int) {
	t.Helper()
	want, err := ref.TopK(k, tkd.WithAlgorithm(tkd.Naive))
	if err != nil {
		t.Fatal(err)
	}
	qr, code := postQuery(t, url, server.QueryRequest{Dataset: "big", K: k, Algorithm: "IBIG"})
	if code != http.StatusOK {
		t.Fatalf("k=%d: status %d", k, code)
	}
	if len(qr.Items) != len(want.Items) {
		t.Fatalf("k=%d: %d items, want %d", k, len(qr.Items), len(want.Items))
	}
	for i, it := range qr.Items {
		w := want.Items[i]
		if it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
			t.Fatalf("k=%d rank %d: got {%d %q %d}, want {%d %q %d}",
				k, i+1, it.Index, it.ID, it.Score, w.Index, w.ID, w.Score)
		}
	}
}

// TestShardedTinyDatasetMoreShardsThanUseful registers a 5-row dataset
// split 8 ways with persistence on: empty shards must not fail
// registration, pollute the cache-error counter, or change answers.
func TestShardedTinyDatasetMoreShardsThanUseful(t *testing.T) {
	dir := t.TempDir()
	ds := tkd.GenerateIND(5, 3, 5, 0.2, 1)
	path := filepath.Join(dir, "tiny.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := server.New(server.Config{Shards: 8, IndexDir: filepath.Join(dir, "ix")})
	defer s.Close()
	if err := s.LoadCSVFile("tiny", path, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	want, _ := tkd.GenerateIND(5, 3, 5, 0.2, 1).TopK(3)
	qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "tiny", K: 3})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for i, it := range qr.Items {
		w := want.Items[i]
		if it.Index != w.Index || it.Score != w.Score {
			t.Fatalf("rank %d: %+v vs %+v", i+1, it, w)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`(?m)^tkd_index_cache_errors_total (\d+)$`).FindStringSubmatch(string(raw))
	if m == nil || m[1] != "0" {
		t.Fatalf("empty shards produced phantom cache errors: %v", m)
	}
}
