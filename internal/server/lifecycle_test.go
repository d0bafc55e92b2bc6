package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/tkd"
)

// writeCSV materializes ds at path (creating or atomically replacing it).
func writeCSV(t testing.TB, ds *tkd.Dataset, path string) {
	t.Helper()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// assertCacheFiles pins the index directory's contents to exactly want —
// the on-disk names a parent binary's -indexdir must keep warm-loading
// under.
func assertCacheFiles(t *testing.T, stage, dir string, want []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	got := make([]string, 0, len(entries))
	for _, e := range entries {
		got = append(got, e.Name())
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: index dir holds %v, want exactly %v", stage, got, want)
	}
}

// assertAnswers checks the served top-k against ref's serial answer.
func assertAnswers(t *testing.T, stage, url string, ref *tkd.Dataset) {
	t.Helper()
	want, err := ref.TopK(6)
	if err != nil {
		t.Fatal(err)
	}
	got, code := postQuery(t, url, server.QueryRequest{Dataset: "big", K: 6})
	if code != http.StatusOK {
		t.Fatalf("%s: query status %d", stage, code)
	}
	if len(got.Items) != len(want.Items) {
		t.Fatalf("%s: %d items, want %d", stage, len(got.Items), len(want.Items))
	}
	for i, it := range got.Items {
		if w := want.Items[i]; it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
			t.Fatalf("%s: rank %d: got %+v, want %+v", stage, i+1, it, w)
		}
	}
}

// servesFingerprint reports whether url's "big" currently holds exactly the
// bytes hashing to fp: the epoch endpoint answers a conditional poll 304.
func servesFingerprint(t *testing.T, url string, fp uint64) bool {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/datasets/big/epoch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-TKD-Have-Fingerprint", fmt.Sprintf("%016x", fp))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusNotModified
}

// TestDatasetLifecycle walks one dataset through its whole serving life —
// register → warm restart → reload of the unchanged file → reload of a
// changed file → follower full import (first registration, then a swap into
// the resident replica) → evict — once per topology. Both rows run the same
// load → shard → warm off to the side → swap → persist sequence; what
// differs is only how many index parts there are, and their file names,
// which are pinned here because an -indexdir written by an older binary
// must keep warm-loading.
func TestDatasetLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		rows   int
		files  []string // exact index-dir contents, sorted
		// followerBuilds is what a follower with the same topology builds on
		// a full import: an unsharded leader ships its index (0); a sharded
		// replica builds its own per-shard ones.
		followerBuilds int64
	}{
		{"unsharded", 0, 900, []string{"big.tkdix"}, 0},
		{"shards=3", 3, 900, []string{"big%shard-0.tkdix", "big%shard-1.tkdix", "big%shard-2.tkdix"}, 3},
		// More shards than rows: shard 0 covers no row, so it has no index,
		// no file, and no phantom cache error.
		{"shards=3 over 2 rows", 3, 2, []string{"big%shard-1.tkdix", "big%shard-2.tkdix"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			gen := func(seed int64) *tkd.Dataset { return tkd.GenerateAC(tc.rows, 4, 20, 0.3, seed) }
			parts := int64(len(tc.files))
			csv := filepath.Join(dir, "big.csv")
			writeCSV(t, gen(1), csv)
			ixdir := filepath.Join(dir, "ix")
			cfg := server.Config{Shards: tc.shards, IndexDir: ixdir}

			// Register, cold: every part is built once and persisted.
			s1 := server.New(cfg)
			if err := s1.LoadCSVFile("big", csv, false); err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(s1)
			m := getBody(t, ts1.URL+"/metrics")
			if got := sumMetric(t, m, "tkd_index_builds_total"); got != parts {
				t.Fatalf("cold boot: %d index builds, want %d", got, parts)
			}
			if got := sumMetric(t, m, "tkd_index_warm_loads_total"); got != 0 {
				t.Fatalf("cold boot: %d warm loads, want 0", got)
			}
			if info := listDatasets(t, ts1.URL)["big"]; info.Shards != tc.shards || info.Objects != tc.rows {
				t.Fatalf("cold boot: /v1/datasets row %+v, want shards=%d objects=%d", info, tc.shards, tc.rows)
			}
			assertAnswers(t, "cold boot", ts1.URL, gen(1))
			s1.WaitIndexWrites() // the parts are written once the dataset serves
			assertCacheFiles(t, "cold boot", ixdir, tc.files)
			ts1.Close()
			s1.Close()

			// Warm restart: same file, same index dir, zero builds.
			s2 := server.New(cfg)
			defer s2.Close()
			if err := s2.LoadCSVFile("big", csv, false); err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(s2)
			defer ts2.Close()
			m = getBody(t, ts2.URL+"/metrics")
			if got := sumMetric(t, m, "tkd_index_builds_total"); got != 0 {
				t.Fatalf("warm restart: %d index builds, want 0", got)
			}
			if got := sumMetric(t, m, "tkd_index_warm_loads_total"); got != parts {
				t.Fatalf("warm restart: %d warm loads, want %d", got, parts)
			}
			assertAnswers(t, "warm restart", ts2.URL, gen(1))

			// Reload of the unchanged file: the replacement warms from the
			// cache before the swap, for either topology.
			reload := func(stage string) server.ReloadResponse {
				t.Helper()
				code, body := doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets/big/reload", nil)
				if code != http.StatusOK {
					t.Fatalf("%s: reload status %d: %s", stage, code, body)
				}
				var rr server.ReloadResponse
				if err := json.Unmarshal(body, &rr); err != nil {
					t.Fatal(err)
				}
				return rr
			}
			if rr := reload("unchanged reload"); !rr.WarmIndex || rr.Objects != tc.rows {
				t.Fatalf("unchanged reload: %+v, want warm_index=true objects=%d", rr, tc.rows)
			}
			m = getBody(t, ts2.URL+"/metrics")
			if got := sumMetric(t, m, "tkd_index_builds_total"); got != 0 {
				t.Fatalf("unchanged reload: %d index builds, want still 0", got)
			}
			assertAnswers(t, "unchanged reload", ts2.URL, gen(1))

			// Reload of a changed file: every part rebuilds and overwrites
			// its file in place.
			writeCSV(t, gen(2), csv)
			if rr := reload("changed reload"); rr.WarmIndex {
				t.Fatalf("changed reload reported warm_index=true: %+v", rr)
			}
			m = getBody(t, ts2.URL+"/metrics")
			if got := sumMetric(t, m, "tkd_index_builds_total"); got != parts {
				t.Fatalf("changed reload: %d index builds, want %d", got, parts)
			}
			if got := sumMetric(t, m, "tkd_index_cache_errors_total"); got != 0 {
				t.Fatalf("changed reload: %d cache errors, want 0", got)
			}
			assertAnswers(t, "changed reload", ts2.URL, gen(2))
			s2.WaitIndexWrites()
			assertCacheFiles(t, "changed reload", ixdir, tc.files)

			// Follower, same topology: a full import registers the dataset,
			// and persists its parts under the same names.
			fixdir := filepath.Join(dir, "fix")
			fol := server.New(server.Config{Shards: tc.shards, IndexDir: fixdir,
				Follow: ts2.URL, FollowInterval: 5 * time.Millisecond})
			defer fol.Close()
			fts := httptest.NewServer(fol)
			defer fts.Close()
			// The follower marks an import applied after queueing its index
			// write, so once converged there is a write to wait for.
			converged := func(stage string, ref *tkd.Dataset) {
				t.Helper()
				waitUntil(t, stage, func() bool {
					d, ok := listDatasets(t, fts.URL)["big"]
					return ok && d.Followed && d.LeaderEpoch == listDatasets(t, ts2.URL)["big"].Epoch &&
						servesFingerprint(t, fts.URL, ref.Fingerprint())
				})
				assertAnswers(t, stage, fts.URL, ref)
				fol.WaitIndexWrites()
			}
			converged("follower bootstrap", gen(2))
			m = getBody(t, fts.URL+"/metrics")
			if got := sumMetric(t, m, "tkd_index_builds_total"); got != tc.followerBuilds {
				t.Fatalf("follower bootstrap: %d index builds, want %d", got, tc.followerBuilds)
			}
			assertCacheFiles(t, "follower bootstrap", fixdir, tc.files)

			// A leader reload cuts the append lineage, so the follower's next
			// sync is a full import swapped into the resident replica.
			writeCSV(t, gen(3), csv)
			reload("leader reload under a follower")
			converged("follower swap", gen(3))
			assertCacheFiles(t, "follower swap", fixdir, tc.files)
			if got := sumMetric(t, getBody(t, fts.URL+"/metrics"), "tkd_index_cache_errors_total"); got != 0 {
				t.Fatalf("follower swap: %d cache errors, want 0", got)
			}

			// Evict: the name is gone, the eviction is counted.
			if code, body := doJSON(t, http.MethodDelete, ts2.URL+"/v1/datasets/big", nil); code != http.StatusOK {
				t.Fatalf("evict status %d: %s", code, body)
			}
			if _, code := postQuery(t, ts2.URL, server.QueryRequest{Dataset: "big", K: 3}); code != http.StatusNotFound {
				t.Fatalf("query after evict: status %d, want 404", code)
			}
			if got := sumMetric(t, getBody(t, ts2.URL+"/metrics"), "tkd_dataset_evictions_total"); got != 1 {
				t.Fatalf("evictions = %d, want 1", got)
			}
		})
	}
}

// TestWarmRestartSkipsPrepare is the -indexdir acceptance test: the first
// boot builds and persists the index; a second boot over the same data
// loads it and performs zero builds — Prepare is skipped entirely.
func TestWarmRestartSkipsPrepare(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	writeCSV(t, tkd.GenerateIND(600, 4, 25, 0.2, 17), csv)
	ixdir := filepath.Join(dir, "ix")
	var logs bytes.Buffer
	cfg := server.Config{IndexDir: ixdir, Logger: slog.New(slog.NewTextHandler(&logs, nil))}
	// Every load ends with one line that decomposes it, and a load that built
	// its index writes the file once the dataset serves, under a line of its
	// own; wantLoadLine checks both and empties the buffer. The fingerprint
	// fold is where it is paid: a warm load checks the checkpoint against the
	// rows, so its line times the fold, and a cold one has nothing to check
	// and leaves it to the index write, whose line times it instead.
	wantLoadLine := func(stage, msg string, warm bool) {
		t.Helper()
		var load, persisted string
		for _, line := range strings.Split(logs.String(), "\n") {
			switch {
			case strings.Contains(line, fmt.Sprintf("msg=%q", msg)):
				load = line
			case strings.Contains(line, `msg="index persisted"`):
				persisted = line
			}
		}
		logs.Reset()
		for _, w := range []string{"dataset=d", "rows=600", fmt.Sprintf("warm=%v", warm),
			"parse_ms=", "fingerprint_ms=", "index_ms=", "queue_ms=", "seconds="} {
			if !strings.Contains(load, w) {
				t.Fatalf("%s: no %q line with %s:\n%s", stage, msg, w, load)
			}
		}
		if strings.Contains(load, "persist_ms=") {
			t.Fatalf("%s: the load line times the index write, which runs after the dataset serves:\n%s", stage, load)
		}
		if warm != (persisted == "") {
			t.Fatalf("%s: a warm=%v load logged index persisted %q", stage, warm, persisted)
		}
		if deferred := strings.Contains(load, "fingerprint_ms=0 "); deferred == warm {
			t.Fatalf("%s: a warm=%v load paid the fingerprint fold = %v:\n%s", stage, warm, !deferred, load)
		}
		for _, w := range []string{"dataset=d", " ms=", "bytes=", "parts=1", "fingerprint_ms="} {
			if !warm && !strings.Contains(persisted, w) {
				t.Fatalf("%s: the index persisted line lacks %s:\n%s", stage, w, persisted)
			}
		}
	}

	// Cold boot: builds once, persists once the dataset serves.
	s1 := server.New(cfg)
	if err := s1.LoadCSVFile("d", csv, false); err != nil {
		t.Fatal(err)
	}
	s1.WaitIndexWrites()
	wantLoadLine("cold boot", "dataset loaded", false)
	ts1 := httptest.NewServer(s1)
	want, code := postQuery(t, ts1.URL, server.QueryRequest{Dataset: "d", K: 5})
	if code != http.StatusOK {
		t.Fatalf("cold query: HTTP %d", code)
	}
	m1 := getBody(t, ts1.URL+"/metrics")
	if got := sumMetric(t, m1, "tkd_index_builds_total"); got != 1 {
		t.Fatalf("cold boot: %d index builds, want 1", got)
	}
	if got := sumMetric(t, m1, "tkd_index_warm_loads_total"); got != 0 {
		t.Fatalf("cold boot: %d warm loads, want 0", got)
	}
	// A reload of the unchanged file is a load too, warm from the cache.
	if code, body := doJSON(t, http.MethodPost, ts1.URL+"/v1/datasets/d/reload", nil); code != http.StatusOK {
		t.Fatalf("reload: HTTP %d: %s", code, body)
	}
	wantLoadLine("reload", "dataset reloaded", true)
	ts1.Close()
	s1.Close()

	// Warm boot: same file, same index dir — the persisted index loads and
	// no build happens. The tkd-level build counter is the ground truth
	// that Prepare's expensive step was skipped.
	s2 := server.New(cfg)
	ds2, err := loadPublicCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddDataset("d", ds2); err != nil { // AddDataset also warm-loads
		t.Fatal(err)
	}
	if got := ds2.IndexBuilds(); got != 0 {
		t.Fatalf("warm boot rebuilt the index %d times, want 0", got)
	}
	wantLoadLine("warm boot", "dataset loaded", true)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer s2.Close()
	m2 := getBody(t, ts2.URL+"/metrics")
	if got := sumMetric(t, m2, "tkd_index_warm_loads_total"); got != 1 {
		t.Fatalf("warm boot: %d warm loads, want 1", got)
	}
	if got := sumMetric(t, m2, "tkd_index_builds_total"); got != 0 {
		t.Fatalf("warm boot: %d builds, want 0", got)
	}
	got, code := postQuery(t, ts2.URL, server.QueryRequest{Dataset: "d", K: 5})
	if code != http.StatusOK {
		t.Fatalf("warm query: HTTP %d", code)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("warm answer diverged from cold answer:\n got %+v\nwant %+v", got.Items, want.Items)
	}
}

// TestIndexFileOfAnotherBinLayoutServedAsIs: an -indexdir file written when
// the serving index took Eq. (8) bins — or a shard's, written when a slice
// took the bins of its own row count — carries its own layout and is served as
// it is — answers never depend on ξ, and which buckets are exact is recomputed
// from the file's rank→bucket maps at load. The boot over it is warm, builds
// nothing, and answers byte for byte what a fresh build under today's rule
// answers.
func TestIndexFileOfAnotherBinLayoutServedAsIs(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	writeCSV(t, tkd.GenerateIND(3000, 4, 80, 0.2, 17), csv)
	old, err := loadPublicCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	file := bytes.NewBufferString("TKDIXD2\n")
	if err := core.NewPrepared(old.ShardData(), []int{39}).SaveServing(file); err != nil {
		t.Fatal(err)
	}
	ixdir := filepath.Join(dir, "ix")
	if err := os.MkdirAll(ixdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ixdir, "d.tkdix"), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	s := server.New(server.Config{IndexDir: ixdir, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	defer s.Close()
	if err := s.LoadCSVFile("d", csv, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "warm=true") {
		t.Fatalf("the boot over a 39-bin index file was not warm:\n%s", logs.String())
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	fresh, err := loadPublicCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, 40} {
		got, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "d", K: k})
		if code != http.StatusOK {
			t.Fatalf("k=%d: HTTP %d", k, code)
		}
		want, err := fresh.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range got.Items {
			if w := want.Items[i]; len(got.Items) != len(want.Items) || it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
				t.Fatalf("k=%d item %d: %+v from the 39-bin file, %+v from a fresh build", k, i, it, w)
			}
		}
	}
	m := getBody(t, ts.URL+"/metrics")
	if builds, warm := sumMetric(t, m, "tkd_index_builds_total"), sumMetric(t, m, "tkd_index_warm_loads_total"); builds != 0 || warm != 1 {
		t.Fatalf("%d index builds, %d warm loads; want 0 / 1", builds, warm)
	}
	if fresh.IndexBuilds() != 1 {
		t.Fatalf("the reference built %d indexes, want its own one", fresh.IndexBuilds())
	}

	// The same behind -shards 3: a %shard-0 file of 48 bins — a slice once
	// binned by its own row count, today by its dataset's — is loaded, served
	// and left on disk as it is, beside the two parts the boot had to build.
	slice0 := old.ShardData().Slice(0, old.Len()/3)
	shardFile := bytes.NewBufferString("TKDIXD2\n")
	if err := core.NewPrepared(slice0, []int{48}).SaveServing(shardFile); err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "ix-sharded")
	shardPath := filepath.Join(shardDir, "d%shard-0.tkdix")
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath, shardFile.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ss := server.New(server.Config{IndexDir: shardDir, Shards: 3})
	defer ss.Close()
	if err := ss.LoadCSVFile("d", csv, false); err != nil {
		t.Fatal(err)
	}
	tss := httptest.NewServer(ss)
	defer tss.Close()
	for _, k := range []int{1, 7, 40} {
		got, code := postQuery(t, tss.URL, server.QueryRequest{Dataset: "d", K: k})
		if code != http.StatusOK {
			t.Fatalf("sharded k=%d: HTTP %d", k, code)
		}
		want, err := fresh.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range got.Items {
			if w := want.Items[i]; len(got.Items) != len(want.Items) || it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
				t.Fatalf("sharded k=%d item %d: %+v over the 48-bin shard file, %+v from a fresh build", k, i, it, w)
			}
		}
	}
	m = getBody(t, tss.URL+"/metrics")
	if builds, warm := sumMetric(t, m, "tkd_index_builds_total"), sumMetric(t, m, "tkd_index_warm_loads_total"); builds != 2 || warm != 1 {
		t.Fatalf("sharded: %d index builds, %d warm loads; want 2 / 1", builds, warm)
	}
	if onDisk, err := os.ReadFile(shardPath); err != nil || !bytes.Equal(onDisk, shardFile.Bytes()) {
		t.Fatalf("the 48-bin shard file was not left as it was (err %v)", err)
	}
}

func loadPublicCSV(path string) (*tkd.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tkd.ReadCSV(f)
}

// TestReloadUnderLoad is the zero-downtime acceptance test, unsharded and
// through the scatter-gather coordinator: six clients cycle k and the worker
// count (serial, 1, 2) while the source file is replaced and three /reload
// requests race them and each other — each reload publishes an epoch of the
// new file. Every query must succeed (zero
// non-200s) and every answer must equal, item for item, an unsharded
// library run over the old file or the new one.
func TestReloadUnderLoad(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"unsharded", 0}, {"sharded", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			csv := filepath.Join(dir, "x.csv")
			v1 := tkd.GenerateIND(800, 4, 30, 0.2, 5)
			v2 := tkd.GenerateIND(1000, 4, 35, 0.25, 6)
			writeCSV(t, v1, csv)

			s := server.New(server.Config{MaxWorkers: 2, IndexDir: filepath.Join(dir, "ix"), Shards: tc.shards})
			if err := s.LoadCSVFile("x", csv, false); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			defer ts.Close()
			defer s.Close()

			ks := []int{2, 4, 6, 8}
			wantV1, wantV2 := topKItems(t, v1, ks), topKItems(t, v2, ks)

			// Swap the file to v2, then fire queries and three reloads
			// concurrently, so the reloads also contend with each other.
			writeCSV(t, v2, csv)
			const clients, ops, reloads = 6, 25, 3
			var failed atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						k := ks[(c+i)%len(ks)]
						qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "x", K: k})
						if code != http.StatusOK {
							failed.Add(1)
							t.Errorf("query during reload: HTTP %d", code)
							return
						}
						if !slices.Equal(qr.Items, wantV1[k]) && !slices.Equal(qr.Items, wantV2[k]) {
							t.Errorf("k=%d: answer matches neither epoch: %+v", k, qr.Items)
							return
						}
					}
				}()
			}
			for r := 0; r < reloads; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/x/reload", nil); code != http.StatusOK {
						failed.Add(1)
						t.Errorf("reload: HTTP %d: %s", code, body)
					}
				}()
			}
			wg.Wait()
			if failed.Load() != 0 {
				t.Fatalf("%d requests failed during live reload", failed.Load())
			}

			// After the storm, the new epoch is authoritative and every
			// reload published one.
			for _, k := range ks {
				qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "x", K: k})
				if code != http.StatusOK {
					t.Fatalf("post-reload query: HTTP %d", code)
				}
				if !slices.Equal(qr.Items, wantV2[k]) {
					t.Fatalf("post-reload k=%d: %+v, want %+v", k, qr.Items, wantV2[k])
				}
				if qr.Epoch != reloads+1 {
					t.Fatalf("epoch after %d reloads = %d, want %d", reloads, qr.Epoch, reloads+1)
				}
			}
			metrics := getBody(t, ts.URL+"/metrics")
			if got := sumMetric(t, metrics, "tkd_dataset_reloads_total"); got != reloads {
				t.Fatalf("reloads counter = %d, want %d", got, reloads)
			}
			if sumMetric(t, metrics, "tkd_query_errors_total") != 0 {
				t.Fatal("query errors recorded during reload storm")
			}
			// A sharded dataset stays sharded across every swap, and its
			// shards served the load: the cross-shard scorer pruned on their
			// summed bounds, through no peer call (in-process shards make
			// none; TestShardedServingRemotePeers counts a peer's).
			if tc.shards > 1 {
				if v := metricValue(t, metrics, `tkd_dataset_shards{dataset="x"}`); v != float64(tc.shards) {
					t.Fatalf("tkd_dataset_shards = %v, want %d", v, tc.shards)
				}
				if v := metricValue(t, metrics, `tkd_shard_tau_pushdowns_total{dataset="x"}`); v == 0 {
					t.Fatal("tkd_shard_tau_pushdowns_total is zero after the load")
				}
				if v := metricValue(t, metrics, `tkd_shard_fanout_total{dataset="x"}`); v != 0 {
					t.Fatalf("tkd_shard_fanout_total = %v over in-process shards, want 0", v)
				}
			}
		})
	}
}

// TestEvictRegisterRace hammers queries while the dataset is evicted and
// re-registered in a loop. Legal responses: 200 with a consistent answer,
// 404 (evicted), 503 (draining). Never 500, never a torn answer.
func TestEvictRegisterRace(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "y.csv")
	ds := tkd.GenerateIND(500, 4, 25, 0.2, 9)
	writeCSV(t, ds, csv)

	s := server.New(server.Config{IndexDir: filepath.Join(dir, "ix")})
	if err := s.LoadCSVFile("y", csv, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer s.Close()

	const k = 5
	want, err := ds.TopK(k)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "y", K: k})
				switch code {
				case http.StatusOK:
					if len(qr.Items) != len(want.Items) {
						t.Errorf("got %d items, want %d", len(qr.Items), len(want.Items))
						return
					}
					for i, it := range qr.Items {
						w := want.Items[i]
						if it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
							t.Errorf("torn answer: item %d = %+v, want %+v", i, it, w)
							return
						}
					}
				case http.StatusNotFound, http.StatusServiceUnavailable:
					// Evicted or draining: acceptable, client retries.
				default:
					t.Errorf("illegal status %d during evict/register race", code)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/y", nil); code != http.StatusOK {
				t.Errorf("evict %d: HTTP %d: %s", i, code, body)
				return
			}
			if code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets",
				server.RegisterRequest{Name: "y", Path: csv}); code != http.StatusCreated {
				t.Errorf("re-register %d: HTTP %d: %s", i, code, body)
				return
			}
		}
	}()
	wg.Wait()

	// The dataset must be resident and consistent after the churn.
	qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "y", K: k})
	if code != http.StatusOK {
		t.Fatalf("post-churn query: HTTP %d", code)
	}
	if len(qr.Items) != len(want.Items) {
		t.Fatalf("post-churn: %d items, want %d", len(qr.Items), len(want.Items))
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if got := sumMetric(t, metrics, "tkd_dataset_evictions_total"); got != 5 {
		t.Fatalf("evictions counter = %d, want 5", got)
	}
	// Every re-registration after the first eviction warm-loads the
	// persisted index instead of rebuilding.
	if got := sumMetric(t, metrics, "tkd_index_builds_total"); got != 1 {
		t.Fatalf("builds across churn = %d, want 1 (registrations should warm-load)", got)
	}
}

// TestShutdownDrainsQueuedWindows is the graceful-shutdown regression test:
// queries queued behind running work when Shutdown fires — here every worker
// slot is held, so the burst waits in the admission line — must all be
// answered, not dropped, and Shutdown must wait for them; queries arriving
// after Shutdown get 503.
func TestShutdownDrainsQueuedWindows(t *testing.T) {
	srv, ts, ref := newTestServer(t, server.Config{})
	want, err := ref["ac"].TopK(4)
	if err != nil {
		t.Fatal(err)
	}

	release := srv.HoldSlots()
	const burst = 10
	var wg sync.WaitGroup
	codes := make([]int, burst)
	answers := make([]server.QueryResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			answers[i], codes[i] = postQuery(t, ts.URL, server.QueryRequest{Dataset: "ac", K: 4})
		}(i)
	}
	waitFor(t, "the burst to queue behind the held slots", func() bool { return srv.Waiting("ac") == burst })
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	waitFor(t, "the shutdown to begin", func() bool { return strings.Contains(getBody(t, ts.URL+"/healthz"), `"draining"`) })
	select {
	case <-done:
		t.Fatal("Shutdown returned while queued queries were still waiting")
	default:
	}
	release()
	wg.Wait()
	<-done

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("queued query %d dropped on shutdown: HTTP %d", i, code)
		}
		for j, it := range answers[i].Items {
			w := want.Items[j]
			if it.Index != w.Index || it.Score != w.Score {
				t.Fatalf("drained answer %d diverged", i)
			}
		}
	}
	// Post-shutdown queries are refused, not hung.
	if _, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "ac", K: 4}); code != http.StatusServiceUnavailable {
		t.Fatalf("query after shutdown: HTTP %d, want 503", code)
	}
}

// TestLifecycleValidation covers the admin endpoints' error paths.
func TestLifecycleValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})

	// Reload of an unknown dataset.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/nope/reload", nil); code != http.StatusNotFound {
		t.Errorf("reload unknown: HTTP %d, want 404", code)
	}
	// Reload of an in-process dataset (no source file).
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/ac/reload", nil); code != http.StatusConflict {
		t.Errorf("reload in-process: HTTP %d, want 409", code)
	}
	// Evict of an unknown dataset.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/nope", nil); code != http.StatusNotFound {
		t.Errorf("evict unknown: HTTP %d, want 404", code)
	}
	// Register with missing fields / bad path / duplicate name.
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", server.RegisterRequest{Name: "z"}); code != http.StatusBadRequest {
		t.Errorf("register without path: HTTP %d, want 400", code)
	}
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets",
		server.RegisterRequest{Name: "z", Path: "/no/such/file.csv"}); code != http.StatusBadRequest {
		t.Errorf("register bad path: HTTP %d, want 400", code)
	}
	csv := filepath.Join(t.TempDir(), "dup.csv")
	writeCSV(t, tkd.GenerateIND(50, 3, 10, 0.1, 1), csv)
	if code, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets",
		server.RegisterRequest{Name: "ac", Path: csv}); code != http.StatusConflict {
		t.Errorf("register duplicate: HTTP %d, want 409", code)
	}

	// Eviction actually removes: query it, get 404.
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/ind", nil); code != http.StatusOK {
		t.Fatalf("evict ind failed: HTTP %d", code)
	}
	if _, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "ind", K: 3}); code != http.StatusNotFound {
		t.Errorf("query evicted dataset: HTTP %d, want 404", code)
	}
	var dl struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/datasets")), &dl); err != nil {
		t.Fatal(err)
	}
	for _, d := range dl.Datasets {
		if d.Name == "ind" {
			t.Error("evicted dataset still listed")
		}
	}
}

// TestStaleIndexCacheRebuilds: a cached index whose fingerprint no longer
// matches the (changed) data file is ignored and rebuilt, not trusted.
func TestStaleIndexCacheRebuilds(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "s.csv")
	ixdir := filepath.Join(dir, "ix")
	writeCSV(t, tkd.GenerateIND(300, 4, 20, 0.2, 3), csv)

	s1 := server.New(server.Config{IndexDir: ixdir})
	if err := s1.LoadCSVFile("s", csv, false); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// The data changes on disk; the persisted index is now stale.
	v2 := tkd.GenerateIND(300, 4, 20, 0.3, 4)
	writeCSV(t, v2, csv)
	s2 := server.New(server.Config{IndexDir: ixdir})
	ds2, err := loadPublicCSV(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.AddDataset("s", ds2); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := ds2.IndexBuilds(); got != 1 {
		t.Fatalf("stale cache: %d builds, want 1 (must rebuild, not trust)", got)
	}
	// And the answers come from the new data.
	want, err := v2.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ds2.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatal("answers diverged after stale-cache rebuild")
	}
}

// TestOldIndexCacheFormatRebuilds is the index-file half of the fingerprint
// migration: an -indexdir an earlier build wrote — the TKDIXD1 wrapper, its
// copy of the old-definition fingerprint, a v3 stream — is a miss for this
// build (not an error, never a load): the boot rebuilds once, overwrites the
// file in the current format under the same name, and the next boot is warm.
func TestOldIndexCacheFormatRebuilds(t *testing.T) {
	v3 := goldenIndexFile(t, "golden_v3_wah.idx")
	// What the previous build left for golden.csv: wrapper magic, the
	// fingerprint it keyed the file by (the v3 header's own copy), the stream.
	old := append([]byte("TKDIXD1\n"), v3[6+5*8:6+6*8]...)
	bootOverIndexFile(t, append(old, v3...), 0)
}

// TestThreeKindIndexCacheRebuilds: an -indexdir file in the current wrapper
// and version whose index holds a sorted-id sparse column (kind 3, which the
// three-kind adaptive rule could pick and this build does not read) is a
// counted miss — tkd_index_cache_errors_total — that rebuilds once and is
// overwritten in place; the next boot is warm.
func TestThreeKindIndexCacheRebuilds(t *testing.T) {
	bootOverIndexFile(t, append([]byte("TKDIXD2\n"), goldenIndexFile(t, "golden_v4_adaptive_3kind.idx")...), 1)
}

func goldenIndexFile(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "bitmapidx", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// bootOverIndexFile boots golden.csv twice over an -indexdir that holds file
// as the dataset's index: the first boot must rebuild once, count wantErrs
// cache errors and overwrite the file in the current format, the second load
// it warm.
func bootOverIndexFile(t *testing.T, file []byte, wantErrs int64) {
	t.Helper()
	ixdir := filepath.Join(t.TempDir(), "ix")
	if err := os.MkdirAll(ixdir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(ixdir, "g.tkdix")
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	boot := func() (builds, warm, errs int64) {
		s := server.New(server.Config{IndexDir: ixdir})
		defer s.Close()
		if err := s.LoadCSVFile("g", filepath.Join("..", "bitmapidx", "testdata", "golden.csv"), false); err != nil {
			t.Fatalf("an unreadable index file failed the boot: %v", err)
		}
		ts := httptest.NewServer(s)
		defer ts.Close()
		if _, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "g", K: 3}); code != http.StatusOK {
			t.Fatalf("query: HTTP %d", code)
		}
		m := getBody(t, ts.URL+"/metrics")
		return sumMetric(t, m, "tkd_index_builds_total"), sumMetric(t, m, "tkd_index_warm_loads_total"), sumMetric(t, m, "tkd_index_cache_errors_total")
	}
	if builds, warm, errs := boot(); builds != 1 || warm != 0 || errs != wantErrs {
		t.Fatalf("boot over the file: %d builds, %d warm loads, %d cache errors; want 1 / 0 / %d", builds, warm, errs, wantErrs)
	}
	now, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(now, []byte("TKDIXD2\nTKDIX\x04")) || bytes.Equal(now, file) {
		t.Fatalf("the rebuild did not overwrite the file in the current format (err %v)", err)
	}
	if builds, warm, errs := boot(); builds != 0 || warm != 1 || errs != 0 {
		t.Fatalf("second boot: %d builds, %d warm loads, %d cache errors; want 0 / 1 / 0", builds, warm, errs)
	}
}

// TestCorruptIndexCacheRebuilds: a cache file that cannot be used — garbage
// in the body, or an intact index written with the retired WAH codec (header
// codec byte 1) — degrades to a rebuild and surfaces on the error counter,
// never a failed boot.
func TestCorruptIndexCacheRebuilds(t *testing.T) {
	// The cache file is an 8-byte wrapper magic ahead of the index stream,
	// whose header codec byte follows its own 6-byte magic; both cases keep
	// the wrapper so the load is attempted.
	const wrapper, codecAt = 8, 8 + 6
	for name, spoil := range map[string]func(blob []byte) []byte{
		"bit flip":  func(blob []byte) []byte { blob[len(blob)/2] ^= 0x10; return blob },
		"WAH codec": func(blob []byte) []byte { blob[codecAt] = 1; return blob },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			csv := filepath.Join(dir, "c.csv")
			ixdir := filepath.Join(dir, "ix")
			writeCSV(t, tkd.GenerateIND(200, 3, 15, 0.2, 7), csv)

			s1 := server.New(server.Config{IndexDir: ixdir})
			if err := s1.LoadCSVFile("c", csv, false); err != nil {
				t.Fatal(err)
			}
			s1.Shutdown() // the index is written after the dataset serves; the drain waits for it

			files, err := filepath.Glob(filepath.Join(ixdir, "*.tkdix"))
			if err != nil || len(files) != 1 {
				t.Fatalf("index files: %v err %v", files, err)
			}
			blob, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], spoil(blob), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := server.New(server.Config{IndexDir: ixdir})
			ds2, err := loadPublicCSV(csv)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.AddDataset("c", ds2); err != nil {
				t.Fatalf("unusable cache failed the boot: %v", err)
			}
			if got := ds2.IndexBuilds(); got != 1 {
				t.Fatalf("unusable cache: %d builds, want 1", got)
			}
			ts := httptest.NewServer(s2)
			defer ts.Close()
			defer s2.Close()
			metrics := getBody(t, ts.URL+"/metrics")
			if got := sumMetric(t, metrics, "tkd_index_cache_errors_total"); got == 0 {
				t.Error("unusable cache not surfaced on tkd_index_cache_errors_total")
			}
			if _, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "c", K: 3}); code != http.StatusOK {
				t.Fatalf("query after the rebuild: HTTP %d", code)
			}
		})
	}
}
