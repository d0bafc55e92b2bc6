package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// serveEnv marks a process started from this test binary as a tkdserver:
// TestMain hands its arguments to run instead of running the tests, so
// TestKillUnderLoad can SIGKILL a real server process without building one.
const serveEnv = "TKDSERVER_TEST_SERVE"

func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestKillUnderLoad is the crash-recovery gate. A tkdserver process ingests
// rows through POST /v1/datasets/{name}/append under -fsync always, in
// batches of 1, 4 and 20 rows (one WAL write and one fsync each), until a
// seeded SIGKILL lands; it is restarted and audited, twice per seed. Every
// row acked before a kill must be present after recovery, and the recovered
// dataset must hold the bytes (fingerprint) and give the answers of a fresh
// load of the same rows. The one latitude is the append request in flight
// when the kill lands: it was never acked, so any prefix of its rows may
// survive. Each restart also loads the checkpointed index in -indexdir,
// which covers a prefix of the recovered rows, and patches the WAL's tail on
// top.
func TestKillUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("kills server processes; skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { killUnderLoad(t, seed) })
	}
}

func killUnderLoad(t *testing.T, seed int64) {
	const kills = 2
	ks := []int{2, 4, 8}
	dir := t.TempDir()
	csv := writeTempCSV(t, tkd.GenerateIND(300, 4, 40, 0.2, 1234))

	// The reference every recovery must match: a fresh load of the same CSV
	// with the acked rows appended in wire order.
	f, err := os.Open(csv)
	if err != nil {
		t.Fatal(err)
	}
	expected, err := tkd.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	hc := &http.Client{Timeout: 10 * time.Second}
	var (
		acked, deltaPublishes, replayed int64
		next                            int         // next appended row's index; ids are never reused
		inflight                        []appendRow // the request the previous kill cut off
	)
	for round := 0; round <= kills; round++ {
		proc, base := startServer(t, dir, csv)

		// Recovery replays and publishes the WAL before the listener opens,
		// so the listing already holds everything durable. Of the request
		// the kill cut off, a prefix of its rows may have reached the log.
		info, err := datasetInfo(hc, base)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		replayed = info.WALReplayedRows
		extra := info.Objects - expected.Len()
		if extra < 0 {
			t.Fatalf("round %d: %d acked rows lost (recovered %d rows, acked up to %d)", round, -extra, info.Objects, expected.Len())
		}
		if extra > len(inflight) {
			t.Fatalf("round %d: recovered %d rows beyond the acked %d, more than the %d in flight", round, extra, expected.Len(), len(inflight))
		}
		for _, row := range inflight[:extra] {
			if err := expected.Append(row.id, row.vals...); err != nil {
				t.Fatal(err)
			}
		}
		inflight = nil

		// The recovered bytes: the epoch stream answers 304 when the server
		// already holds the reference's fingerprint.
		if code := epochStatus(t, hc, base, expected.Fingerprint()); code != http.StatusNotModified {
			t.Fatalf("round %d: epoch stream answered %d to the reference fingerprint, want 304", round, code)
		}
		for _, k := range ks {
			want, err := expected.TopK(k)
			if err != nil {
				t.Fatal(err)
			}
			got := queryItems(t, hc, base, k)
			if len(got) != len(want.Items) {
				t.Fatalf("round %d k=%d: %d items, want %d", round, k, len(got), len(want.Items))
			}
			for i, it := range got {
				if w := want.Items[i]; it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
					t.Fatalf("round %d k=%d rank %d: %+v, want %+v", round, k, i+1, it, w)
				}
			}
		}
		if round == kills {
			proc.Process.Kill()
			proc.Wait()
			break
		}

		// Ingest until the seeded SIGKILL lands. Every 200 is an ack the next
		// recovery must honour; the append that fails is the one in flight.
		timer := time.AfterFunc(100*time.Millisecond+time.Duration(rng.Int63n(int64(200*time.Millisecond))), func() { proc.Process.Kill() })
		var roundDeltas int64
		for appended := 0; ; appended++ {
			if appended > 20000 {
				proc.Process.Kill() // the timer should long since have fired
			}
			if appended%8 == 7 {
				// Sample the publish counters while the process lives: the kill
				// must land on one whose checkpoints cover patched epochs.
				if inf, err := datasetInfo(hc, base); err == nil {
					roundDeltas = max(roundDeltas, inf.DeltaPublishes)
				}
			}
			batch := make([]appendRow, appendBatchSizes[appended%len(appendBatchSizes)])
			for i := range batch {
				batch[i] = appendRowFor(next)
				next++
			}
			if !postAppend(t, hc, base, batch) {
				inflight = batch
				break
			}
			for _, row := range batch {
				if err := expected.Append(row.id, row.vals...); err != nil {
					t.Fatal(err)
				}
			}
			acked += int64(len(batch))
		}
		timer.Stop()
		deltaPublishes += roundDeltas
		proc.Wait()
	}

	t.Logf("acked %d rows, replayed %d at the last restart, %d delta publishes seen", acked, replayed, deltaPublishes)
	if acked == 0 {
		t.Error("no rows were acked before the kills: the server never got under load")
	}
	// Checkpoints never truncate the log, so the last restart replays every
	// row ever acked.
	if replayed == 0 || replayed < acked {
		t.Errorf("last restart replayed %d WAL rows, want at least the %d acked", replayed, acked)
	}
	if deltaPublishes == 0 {
		t.Error("no delta publishes under load: no recovery covered a checkpoint of a patched epoch")
	}
}

// appendBatchSizes are the rows per append request, cycled: single rows,
// small batches and the 20-row batch of the served benchmark's writer.
var appendBatchSizes = []int{1, 4, 20}

// appendRow is one generated row; its values are a pure function of its
// index.
type appendRow struct {
	id   string
	vals []float64
}

func appendRowFor(i int) appendRow {
	vals := make([]float64, 4)
	for j := range vals {
		vals[j] = float64((i*2654435761+j*40503)%97984) / 128
	}
	return appendRow{id: fmt.Sprintf("k%07d", i), vals: vals}
}

// startServer starts this test binary as a tkdserver serving csv as "kill"
// with a durable WAL and a checkpointed index under dir, and returns once it
// logs its listen address.
func startServer(t *testing.T, dir, csv string) (*exec.Cmd, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe,
		"-addr", "127.0.0.1:0",
		"-dataset", "kill="+csv,
		"-waldir", filepath.Join(dir, "wal"),
		"-indexdir", filepath.Join(dir, "idx"),
		"-fsync", "always",
		"-publish-interval", "25ms",
	)
	cmd.Env = append(os.Environ(), serveEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.Contains(line, "msg=listening ") {
				if _, addr, ok := strings.Cut(line, " addr="); ok {
					addrc <- addr
				}
			}
		}
		close(addrc)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			cmd.Wait()
			t.Fatalf("server exited before listening: %s", strings.TrimSpace(stderr.String()))
		}
		return cmd, "http://" + addr
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the server to listen")
	}
	return nil, ""
}

// datasetInfo fetches the "kill" dataset's entry of GET /v1/datasets.
func datasetInfo(hc *http.Client, base string) (server.DatasetInfo, error) {
	resp, err := hc.Get(base + "/v1/datasets")
	if err != nil {
		return server.DatasetInfo{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return server.DatasetInfo{}, err
	}
	for _, d := range body.Datasets {
		if d.Name == "kill" {
			return d, nil
		}
	}
	return server.DatasetInfo{}, fmt.Errorf(`dataset "kill" not listed`)
}

// epochStatus polls the epoch stream the way a follower does, advertising
// fingerprint fp: 304 means the server holds exactly those bytes.
func epochStatus(t *testing.T, hc *http.Client, base string, fp uint64) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/datasets/kill/epoch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-TKD-Have-Fingerprint", fmt.Sprintf("%016x", fp))
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func queryItems(t *testing.T, hc *http.Client, base string, k int) []server.QueryItem {
	t.Helper()
	resp, err := hc.Post(base+"/v1/datasets/kill/query", "application/json", strings.NewReader(fmt.Sprintf(`{"k":%d,"workers":1}`, k)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("query k=%d: HTTP %d: %s", k, resp.StatusCode, b)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr.Items
}

// postAppend sends one batch and reports whether the server acked it. A
// transport failure is the kill landing mid-request; any status but 200 is
// a server bug, since appends on a healthy disk never fail.
func postAppend(t *testing.T, hc *http.Client, base string, batch []appendRow) bool {
	t.Helper()
	req := server.AppendRequest{Rows: make([]server.AppendRow, len(batch))}
	for i, row := range batch {
		vals := make([]*float64, len(row.vals))
		for j := range row.vals {
			vals[j] = &row.vals[j]
		}
		req.Rows[i] = server.AppendRow{ID: row.id, Values: vals}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post(base+"/v1/datasets/kill/append", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: HTTP %d: %s", resp.StatusCode, b)
	}
	return true
}
