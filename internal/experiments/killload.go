package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// The kill-under-load harness: a real tkdserver subprocess ingesting rows
// through POST /v1/datasets/{name}/append under -fsync always is SIGKILLed
// mid-ingest, restarted, and audited. The durability contract under test is
// the WAL's reason to exist: every row the server acked before the kill must
// be present after recovery, and the recovered dataset must answer queries
// byte-identically to a fresh unsharded load of the same rows. Appends go
// out in batches of 1, 4 and 20 rows — one WAL write and one fsync each — so
// the kill also lands inside multi-row batches. The only latitude is the
// single append request in flight when the kill lands — it was never acked,
// so any prefix of its rows may legitimately appear (the frames that reached
// the log before the kill) or none (at-least-once's one ambiguous request);
// anything else is a lost write or a silent divergence, and the report row
// makes either impossible to miss. Every restart also exercises the
// checkpointed index: the file in -indexdir covers a prefix of the recovered
// rows and the WAL supplies the tail.

// KillLoadConfig parameterizes one kill-under-load run.
type KillLoadConfig struct {
	// BaseN/Dim/Card/Sigma shape the generated base dataset the server
	// boots from; appended rows share Dim.
	BaseN, Dim, Card int
	Sigma            float64
	// Kills is how many SIGKILL/restart cycles to run.
	Kills int
	// Ks are the query depths checked against the reference after every
	// recovery.
	Ks []int
	// KillAfterMin/Max bound the seeded delay between the start of a
	// round's append load and the SIGKILL.
	KillAfterMin, KillAfterMax time.Duration
	// Seed drives the kill schedule deterministically.
	Seed uint64
}

// killLoadConfigFor scales the harness.
func killLoadConfigFor(s Scale, seed uint64) KillLoadConfig {
	cfg := KillLoadConfig{
		Dim:          4,
		Card:         40,
		Sigma:        0.2,
		Seed:         seed,
		KillAfterMin: 100 * time.Millisecond,
		KillAfterMax: 300 * time.Millisecond,
	}
	switch s {
	case Full:
		cfg.BaseN, cfg.Kills, cfg.Ks = 10000, 5, []int{4, 8, 16, 32}
		cfg.KillAfterMax = 600 * time.Millisecond
	case Tiny:
		cfg.BaseN, cfg.Kills, cfg.Ks = 300, 2, []int{2, 4, 8}
	default: // Quick
		cfg.BaseN, cfg.Kills, cfg.Ks = 2000, 3, []int{4, 8, 16}
	}
	return cfg
}

// KillLoadResult is one run's outcome.
type KillLoadResult struct {
	Kills int
	// Acked counts rows the server acknowledged with 200 before a kill;
	// all of them must survive every recovery.
	Acked int
	// InflightKept counts ambiguous in-flight rows (of the append request the
	// kill cut off before a response arrived) that turned out to be durable.
	InflightKept int
	// Lost counts acked rows missing after a recovery — must be zero.
	Lost int
	// Mismatches counts recoveries whose fingerprint or query answers
	// diverged from the fresh-load reference — must be zero.
	Mismatches int
	// Replayed is the WAL row count crash recovery replayed at the final
	// restart (everything ever logged, since checkpoints don't truncate).
	Replayed int64
	// DeltaPublishes counts index-patching publishes observed in the victim
	// processes while the append load ran: proof the audited recoveries
	// covered WAL checkpoints written by delta-published epochs, not only
	// full rebuilds.
	DeltaPublishes int64
	Wall           time.Duration
}

// RunKillLoad builds tkdserver, then loops: start the server, audit the
// recovered state against an in-process reference (the same CSV plus every
// acked row, in append order), ingest rows until a seeded SIGKILL lands,
// repeat. The final round audits and exits without killing mid-flight.
func RunKillLoad(cfg KillLoadConfig) (KillLoadResult, error) {
	res := KillLoadResult{Kills: cfg.Kills}
	start := time.Now()

	root, err := repoRoot()
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp("", "tkd-kill-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	bin := filepath.Join(dir, "tkdserver")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tkdserver")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return res, fmt.Errorf("go build tkdserver: %v: %s", err, out)
	}

	base := tkd.GenerateIND(cfg.BaseN, cfg.Dim, cfg.Card, cfg.Sigma, 1234)
	csv := filepath.Join(dir, "kill.csv")
	f, err := os.Create(csv)
	if err != nil {
		return res, err
	}
	if err := base.WriteCSV(f); err != nil {
		f.Close()
		return res, err
	}
	if err := f.Close(); err != nil {
		return res, err
	}

	// The reference every recovery must match: a fresh load of the same CSV
	// with the acked rows appended in wire order. Byte-identical data means
	// identical fingerprint and identical answers.
	cf, err := os.Open(csv)
	if err != nil {
		return res, err
	}
	expected, err := tkd.ReadCSV(cf)
	cf.Close()
	if err != nil {
		return res, err
	}

	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	hc := &http.Client{Timeout: 10 * time.Second}
	next := 0                    // next append row index (ids never reused)
	var inflight []killAppendRow // the one request cut off by the previous kill

	for round := 0; round <= cfg.Kills; round++ {
		proc, baseURL, err := startKillServer(bin, dir, csv)
		if err != nil {
			return res, fmt.Errorf("round %d: %w", round, err)
		}

		// Recovery replays and republishes the WAL before the listener
		// opens, so the dataset listing already reflects everything durable.
		info, err := killDatasetInfo(hc, baseURL)
		if err != nil {
			proc.kill()
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		res.Replayed = info.WALReplayedRows

		// Settle the one ambiguous request: a prefix of its rows present
		// means those frames were logged before the kill (fold them into the
		// reference), none means the kill beat the log write — both honour
		// the ack contract. Any other delta is a durability bug.
		delta := info.Objects - expected.Len()
		if delta > 0 && delta <= len(inflight) {
			for _, row := range inflight[:delta] {
				if err := expected.Append(row.id, row.vals...); err != nil {
					proc.kill()
					return res, fmt.Errorf("round %d: reference append: %w", round, err)
				}
			}
			res.InflightKept += delta
			delta = 0
		}
		inflight = nil
		if delta < 0 {
			res.Lost += -delta
		} else if delta > 0 {
			res.Mismatches++
		}

		// Byte-identity check, cheapest form: ask the epoch stream endpoint
		// whether it already serves the reference's fingerprint (304 = yes).
		same, err := killFingerprintMatches(hc, baseURL, expected.Fingerprint())
		if err != nil {
			proc.kill()
			return res, fmt.Errorf("round %d: %w", round, err)
		}
		if !same {
			res.Mismatches++
		}

		// Answer check: recovered server vs the reference at every k.
		expected.PrepareFor(tkd.IBIG)
		client := newSoakClient(baseURL)
		for _, k := range cfg.Ks {
			want, err := expected.TopK(k)
			if err != nil {
				proc.kill()
				return res, fmt.Errorf("round %d: reference TopK(%d): %w", round, k, err)
			}
			items, err := client.query("kill", k, 1)
			if err != nil {
				proc.kill()
				return res, fmt.Errorf("round %d: query k=%d: %w", round, k, err)
			}
			if !killAnswersEqual(items, want) {
				res.Mismatches++
			}
		}

		if round == cfg.Kills {
			// Audited the last recovery; done.
			proc.kill()
			proc.wait()
			break
		}

		// Ingest under load until the seeded SIGKILL lands. Every 200 is an
		// ack the next recovery must honour; the append that errors out is
		// the round's one ambiguous request.
		delay := cfg.KillAfterMin
		if span := cfg.KillAfterMax - cfg.KillAfterMin; span > 0 {
			delay += time.Duration(rng.Int63n(int64(span)))
		}
		timer := time.AfterFunc(delay, proc.kill)
		var roundDeltas int64
		for appended := 0; ; appended++ {
			if appended > 20000 {
				// Safety valve: the timer should long since have fired.
				proc.kill()
			}
			if appended%25 == 24 {
				// Sample the publish-mode counters while the victim is
				// alive, so the kill provably lands on a process whose WAL
				// checkpoints cover delta-patched epochs. Poll errors near
				// the kill are expected and carry no information.
				if inf, err := killDatasetInfo(hc, baseURL); err == nil && inf.DeltaPublishes > roundDeltas {
					roundDeltas = inf.DeltaPublishes
				}
			}
			batch := make([]killAppendRow, killBatchSizes[appended%len(killBatchSizes)])
			for i := range batch {
				batch[i] = killRowFor(next, cfg.Dim)
				next++
			}
			if err := postKillAppend(hc, baseURL, batch); err != nil {
				// Transport cut mid-request: the kill landed. These rows were
				// sent but never acked — resolve them after the restart.
				inflight = batch
				break
			}
			for _, row := range batch {
				if err := expected.Append(row.id, row.vals...); err != nil {
					timer.Stop()
					proc.kill()
					return res, fmt.Errorf("reference append: %w", err)
				}
			}
			res.Acked += len(batch)
		}
		timer.Stop()
		res.DeltaPublishes += roundDeltas
		proc.wait()
	}

	res.Wall = time.Since(start)
	return res, nil
}

// killBatchSizes are the rows per append request, cycled: single rows, small
// batches and the 20-row batch the served benchmark's writer sends.
var killBatchSizes = []int{1, 4, 20}

// killAppendRow is one deterministic generated row; values are a pure
// function of the row index so the reference can regenerate them.
type killAppendRow struct {
	id   string
	vals []float64
}

func killRowFor(i, dim int) killAppendRow {
	vals := make([]float64, dim)
	for j := range vals {
		vals[j] = float64((i*2654435761+j*40503)%97984) / 128
	}
	return killAppendRow{id: fmt.Sprintf("k%07d", i), vals: vals}
}

// killAnswersEqual compares a served answer to the reference result.
func killAnswersEqual(items []server.QueryItem, want tkd.Result) bool {
	if len(items) != len(want.Items) {
		return false
	}
	for i := range items {
		w := want.Items[i]
		if items[i].Index != w.Index || items[i].ID != w.ID || items[i].Score != w.Score {
			return false
		}
	}
	return true
}

// killProc wraps the tkdserver subprocess.
type killProc struct {
	cmd *exec.Cmd
}

func (p *killProc) kill() { _ = p.cmd.Process.Kill() }
func (p *killProc) wait() { _ = p.cmd.Wait() }

// startKillServer launches the built tkdserver on an ephemeral port with a
// durable WAL and returns once it logs the listen address.
func startKillServer(bin, dir, csv string) (*killProc, string, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-dataset", "kill="+csv,
		"-waldir", filepath.Join(dir, "wal"),
		"-indexdir", filepath.Join(dir, "idx"),
		"-fsync", "always",
		"-publish-interval", "25ms",
		"-window", "0",
	)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr := listenAddrFromLog(sc.Text()); addr != "" {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		// EOF before (or after) the listen line; a buffered empty send
		// tells the waiter the process died if it is still waiting.
		select {
		case addrc <- "":
		default:
		}
	}()
	select {
	case addr := <-addrc:
		if addr == "" {
			cmd.Wait()
			return nil, "", fmt.Errorf("tkdserver exited before listening: %s", strings.TrimSpace(errBuf.String()))
		}
		return &killProc{cmd: cmd}, "http://" + addr, nil
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", errors.New("timeout waiting for tkdserver to listen")
	}
}

// listenAddrFromLog extracts the address from the slog text line
// `... msg=listening addr=127.0.0.1:NNNN`.
func listenAddrFromLog(line string) string {
	fields := strings.Fields(line)
	listening := false
	for _, f := range fields {
		if f == "msg=listening" {
			listening = true
		}
	}
	if !listening {
		return ""
	}
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, "addr="); ok {
			return v
		}
	}
	return ""
}

// killDatasetInfo fetches the "kill" dataset's listing entry.
func killDatasetInfo(hc *http.Client, base string) (server.DatasetInfo, error) {
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
	return server.DatasetInfo{}, errors.New(`dataset "kill" not listed after restart`)
}

// killFingerprintMatches asks the epoch stream endpoint whether the server's
// published bytes match fp — the follower protocol's conditional poll, reused
// as the recovery byte-identity check.
func killFingerprintMatches(hc *http.Client, base string, fp uint64) (bool, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/datasets/kill/epoch", nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("X-TKD-Have-Fingerprint", fmt.Sprintf("%016x", fp))
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusNotModified:
		return true, nil
	case http.StatusOK:
		return false, nil
	default:
		return false, fmt.Errorf("epoch stream answered %s", resp.Status)
	}
}

// postKillAppend sends one batch; nil means the server acked it (200). A
// non-200 status aborts the run loudly — under a healthy disk appends never
// fail, so anything but a transport cut is a harness or server bug, not a kill.
func postKillAppend(hc *http.Client, base string, batch []killAppendRow) error {
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
		return err
	}
	resp, err := hc.Post(base+"/v1/datasets/kill/append", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("append: HTTP %d", resp.StatusCode)
	}
	return nil
}

// repoRoot walks up from the working directory to the module root, where
// `go build ./cmd/tkdserver` resolves.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("go.mod not found above working directory")
		}
		dir = parent
	}
}

// Kill is the Spec entry point (seed 1); benchrunner's -seed flag reaches
// KillLoad directly.
func Kill(s Scale) []Table { return KillLoad(s, 1) }

// KillLoad runs the kill-under-load crash-recovery audit and renders the
// report row the CI gate parses: rows_lost and mismatches must be zero.
func KillLoad(s Scale, seed uint64) []Table {
	cfg := killLoadConfigFor(s, seed)
	t := Table{
		Title: fmt.Sprintf("Kill-under-load: %d SIGKILLs mid-ingest, fsync=always (base N=%d, dim=%d, seed=%d, kill after %s..%s)",
			cfg.Kills, cfg.BaseN, cfg.Dim, cfg.Seed, cfg.KillAfterMin, cfg.KillAfterMax),
		Header: []string{"seed", "kills", "rows_acked", "inflight_kept", "rows_lost", "mismatches", "replayed_rows", "delta_publishes", "wall(s)"},
	}
	res, err := RunKillLoad(cfg)
	if err != nil {
		t.Rows = append(t.Rows, []string{"error", err.Error(), "", "", "", "", "", "", ""})
		return []Table{t}
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprint(cfg.Seed),
		fmt.Sprint(res.Kills),
		fmt.Sprint(res.Acked),
		fmt.Sprint(res.InflightKept),
		fmt.Sprint(res.Lost),
		fmt.Sprint(res.Mismatches),
		fmt.Sprint(res.Replayed),
		fmt.Sprint(res.DeltaPublishes),
		fmt.Sprintf("%.1f", res.Wall.Seconds()),
	})
	return []Table{t}
}
