package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
)

// fuzzPeer builds a Peer over a small fixed dataset; the resolver knows one
// dataset "d" at epoch 1.
func fuzzPeer(tb testing.TB) (*Peer, *data.Dataset) {
	tb.Helper()
	ds := testDataset(120)
	return NewPeer(func(name string) (*data.Dataset, uint64, bool) {
		if name != "d" {
			return nil, 0, false
		}
		return ds, 1, true
	}), ds
}

// validWireRequest is a well-formed full-range scores request for ds.
func validWireRequest(ds *data.Dataset) WireRequest {
	obj := ds.Obj(0)
	vals := make([]float64, ds.Dim())
	for d := 0; d < ds.Dim(); d++ {
		if obj.Mask&(1<<uint(d)) != 0 {
			vals[d] = obj.Values[d]
		}
	}
	return WireRequest{
		Dataset:     "d",
		From:        0,
		To:          ds.Len(),
		Fingerprint: ds.Slice(0, ds.Len()).Fingerprint(),
		Algorithm:   "IBIG",
		Mode:        "scores",
		Candidates:  []WireCandidate{{Values: vals, Mask: obj.Mask}},
	}
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzShardWire throws arbitrary bytes at the peer's query endpoint, paired
// with arbitrary traceparent header values. The contract under fuzz: never
// panic, never answer 5xx to a malformed body (bad input is the coordinator's
// bug, reported as 4xx), always answer JSON — and the traceparent header
// never changes the status (a malformed header means "untraced", not 4xx).
// An older coordinator's non-IBIG scatter bodies are seeds too, each answered
// 400 whatever the header.
func FuzzShardWire(f *testing.F) {
	peer, ds := fuzzPeer(f)

	valid := validWireRequest(ds)
	validBody := mustJSON(f, valid)
	f.Add(validBody, "")

	wrongDim := valid
	wrongDim.Candidates = []WireCandidate{{Values: []float64{1}, Mask: 1}}
	f.Add(mustJSON(f, wrongDim), "")

	maskBeyond := valid
	maskBeyond.Candidates = []WireCandidate{{Values: make([]float64, ds.Dim()), Mask: 1 << 40}}
	f.Add(mustJSON(f, maskBeyond), "")

	noMask := valid
	noMask.Candidates = []WireCandidate{{Values: make([]float64, ds.Dim()), Mask: 0}}
	f.Add(mustJSON(f, noMask), "")

	negRange := valid
	negRange.From, negRange.To = -3, 5
	f.Add(mustJSON(f, negRange), "")

	inverted := valid
	inverted.From, inverted.To = 100, 10
	f.Add(mustJSON(f, inverted), "")

	badFP := valid
	badFP.Fingerprint = 0xdeadbeef
	f.Add(mustJSON(f, badFP), "")

	unknownDS := valid
	unknownDS.Dataset = "nope"
	f.Add(mustJSON(f, unknownDS), "")

	badAlg := valid
	badAlg.Algorithm = "quantum"
	f.Add(mustJSON(f, badAlg), "")

	badMode := valid
	badMode.Mode = "vibes"
	f.Add(mustJSON(f, badMode), "")

	// Budgets: well-formed, then every way to get them wrong.
	for _, b := range [][]int{{5}, {-1}, {math.MinInt}, {math.MaxInt}, {1, 2}} {
		budgeted := valid
		budgeted.Budgets = b
		f.Add(mustJSON(f, budgeted), "")
	}
	onBounds := valid
	onBounds.Mode, onBounds.Budgets = "bounds", []int{5}
	f.Add(mustJSON(f, onBounds), "")
	f.Add([]byte(strings.Replace(string(validBody), `"mode"`, `"budgets":[1e400],"mode"`, 1)), "")
	f.Add(goldenScoresRequest(f), "")
	rejected := oldNonIBIGRequests(f)
	for _, alg := range []string{"Naive", "BIG"} {
		f.Add(rejected[alg], "")
	}

	f.Add([]byte(`{"dataset":"d","from":0,"to":10,"unknown_field":true}`), "")
	f.Add(validBody[:20], "") // truncated JSON
	f.Add([]byte(`{`), "")
	f.Add([]byte(``), "")
	f.Add([]byte(`null`), "")
	f.Add([]byte(`[1,2,3]`), "")
	f.Add([]byte(`{"candidates":[{"v":[1e309],"m":18446744073709551615}]}`), "")

	// Traceparent seeds: the W3C spec example, format mutations, and junk.
	const goodTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add(validBody, goodTP)
	f.Add(validBody, goodTP+"-congo=t61rcWkgMzE")                               // future extension field
	f.Add(validBody, "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") // reserved version
	f.Add(validBody, "00-00000000000000000000000000000000-00f067aa0ba902b7-01") // zero trace ID
	f.Add(validBody, "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01") // zero span ID
	f.Add(validBody, strings.ToUpper(goodTP))
	f.Add(validBody, goodTP[:30])
	f.Add(validBody, "not-a-traceparent")
	f.Add(validBody, strings.Repeat("0", 1000))
	f.Add(validBody, "00-zzzz2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")

	f.Fuzz(func(t *testing.T, body []byte, traceparent string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body))
		if traceparent != "" {
			req.Header.Set("Traceparent", traceparent)
		}
		rec := httptest.NewRecorder()
		peer.ServeHTTP(rec, req)
		resp := rec.Result()
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("status %d for body %q — malformed input must be a 4xx", resp.StatusCode, body)
		}
		if bytes.Equal(body, validBody) && resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for a valid body with traceparent %q — the header must never fail a request", resp.StatusCode, traceparent)
		}
		for _, r := range rejected {
			if bytes.Equal(body, r) && resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d for an old coordinator's non-IBIG body, want 400", resp.StatusCode)
			}
		}
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(out) {
			t.Fatalf("non-JSON answer %q for body %q", out, body)
		}
	})
}

// goldenScoresRequest is the exact-phase body a coordinator built from the
// commit before budgets existed sends (captured from its Remote.Partial): no
// budgets field, rows [40,120) of testDataset(120), candidates 0, 57, 119.
// Its fingerprint field was re-cut when the fingerprint definition moved; the
// capture as that coordinator really sent it is kept beside it
// (scores_request_pr15_fp_v1.json) as the stale-peer fixture.
func goldenScoresRequest(tb testing.TB) []byte {
	tb.Helper()
	return readFixture(tb, "scores_request_pr15.json")
}

// oldNonIBIGRequests are scatter bodies a coordinator from before the shard
// protocol served IBIG alone sends for other plans (captured from its
// Remote.Partial over rows [40,120) of testDataset(120), k 3): a Naive exact
// phase — every row a candidate, no budgets — and a BIG bounds phase.
func oldNonIBIGRequests(tb testing.TB) map[string][]byte {
	tb.Helper()
	return map[string][]byte{
		"Naive": readFixture(tb, "scores_request_naive.json"),
		"BIG":   readFixture(tb, "bounds_request_big.json"),
	}
}

func readFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// postShardQuery serves one body through the peer and decodes a 200 answer.
func postShardQuery(t *testing.T, peer *Peer, body []byte) (int, []int32) {
	t.Helper()
	rec := httptest.NewRecorder()
	peer.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body)))
	var out WireResponse
	if rec.Code == http.StatusOK {
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, out.Results
}

// TestPeerAnswersOldCoordinator pins the upgrade order's safe half: a peer
// with budgets still answers the previous request shape, exactly.
func TestPeerAnswersOldCoordinator(t *testing.T) {
	peer, ds := fuzzPeer(t)
	code, results := postShardQuery(t, peer, goldenScoresRequest(t))
	if code != http.StatusOK {
		t.Fatalf("status %d for the pre-budget request body", code)
	}
	slice := ds.Slice(40, 120)
	for i, o := range []int{0, 57, 119} {
		if want := core.ForeignScore(slice, ds.Obj(o)); int(results[i]) != want {
			t.Fatalf("candidate %d: %d, want the exact partial score %d", o, results[i], want)
		}
	}
}

// TestPeerRejectsOtherAlgorithms pins the fail-closed half of the narrowing
// to IBIG: an older coordinator's Naive or BIG scatter gets a 400 with a
// stable error, never an answer, while its IBIG bodies keep answering 200.
func TestPeerRejectsOtherAlgorithms(t *testing.T) {
	peer, _ := fuzzPeer(t)
	for alg, body := range oldNonIBIGRequests(t) {
		rec := httptest.NewRecorder()
		peer.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(body)))
		var we WireError
		if err := json.NewDecoder(rec.Body).Decode(&we); err != nil {
			t.Fatalf("%s: decoding the error body: %v", alg, err)
		}
		want := `shard: algorithm "` + alg + `" is not served; the shard protocol serves IBIG only`
		if rec.Code != http.StatusBadRequest || we.Error != want {
			t.Fatalf("%s: status %d, error %q; want 400, %q", alg, rec.Code, we.Error, want)
		}
	}
	if code, _ := postShardQuery(t, peer, goldenScoresRequest(t)); code != http.StatusOK {
		t.Fatalf("status %d for the old coordinator's IBIG body, want 200", code)
	}
}

// TestPeerRefusesOldFingerprint pins the other half: a coordinator from
// before the fingerprint definition moved names the slice by a digest this
// build no longer computes, and gets the stale-slice 409 — never an answer
// over rows it cannot vouch for. Upgrade coordinator and peers together.
func TestPeerRefusesOldFingerprint(t *testing.T) {
	peer, _ := fuzzPeer(t)
	if code, _ := postShardQuery(t, peer, readFixture(t, "scores_request_pr15_fp_v1.json")); code != http.StatusConflict {
		t.Fatalf("status %d for a request keyed by the old fingerprint, want 409", code)
	}
}

// TestPeerBudgets checks the optional budgets field end to end: one per
// candidate on a scores request or a 400, and under a budget every answer is
// the exact partial score or Pruned.
func TestPeerBudgets(t *testing.T) {
	peer, ds := fuzzPeer(t)
	req := validWireRequest(ds)
	req.Candidates = append(req.Candidates, req.Candidates[0], req.Candidates[0])
	_, exact := postShardQuery(t, peer, mustJSON(t, req))

	req.Budgets = []int{-1, 0, math.MaxInt}
	code, got := postShardQuery(t, peer, mustJSON(t, req))
	if code != http.StatusOK {
		t.Fatalf("status %d for a budgeted request", code)
	}
	for i, v := range got {
		if v != exact[i] && v != Pruned {
			t.Fatalf("budget %d: answered %d, want %d or Pruned", req.Budgets[i], v, exact[i])
		}
	}
	if got[2] != exact[2] {
		t.Fatalf("an unreachable budget pruned: %d, want %d", got[2], exact[2])
	}

	req.Budgets = []int{1, 2}
	if code, _ := postShardQuery(t, peer, mustJSON(t, req)); code != http.StatusBadRequest {
		t.Fatalf("status %d for 2 budgets on 3 candidates, want 400", code)
	}
	req.Mode, req.Budgets = "bounds", []int{1, 2, 3}
	if code, _ := postShardQuery(t, peer, mustJSON(t, req)); code != http.StatusBadRequest {
		t.Fatalf("status %d for budgets on a bounds request, want 400", code)
	}
}

// TestPeerGraceCoversEveryRange reloads a peer under a coordinator that is
// mid-query on two ranges: whichever range is asked for first on the new
// epoch, the other must still answer the retired epoch's fingerprint — a
// query that makes many round trips outlives the swap by many calls.
func TestPeerGraceCoversEveryRange(t *testing.T) {
	v1 := testDataset(120)
	v2 := gen.Synthetic(gen.Config{N: 120, Dim: v1.Dim(), Cardinality: 15, MissingRate: 0.25, Dist: gen.AC, Seed: 18})
	cur := v1
	peer := NewPeer(func(string) (*data.Dataset, uint64, bool) { return cur, 1, true })
	ask := func(ds *data.Dataset, from, to int) int {
		req := validWireRequest(ds)
		req.From, req.To, req.Fingerprint = from, to, ds.Slice(from, to).Fingerprint()
		code, _ := postShardQuery(t, peer, mustJSON(t, req))
		return code
	}
	for _, r := range [][2]int{{0, 60}, {60, 120}} {
		if code := ask(v1, r[0], r[1]); code != http.StatusOK {
			t.Fatalf("range %v on the first epoch: status %d", r, code)
		}
	}
	cur = v2
	if code := ask(v2, 0, 60); code != http.StatusOK {
		t.Fatalf("first range on the new epoch: status %d", code)
	}
	for _, r := range [][2]int{{60, 120}, {0, 60}} {
		if code := ask(v1, r[0], r[1]); code != http.StatusOK {
			t.Fatalf("range %v on the retired epoch: status %d, want the one-epoch grace", r, code)
		}
	}
	if code := ask(v2, 60, 120); code != http.StatusOK {
		t.Fatalf("second range on the new epoch: status %d", code)
	}
}

// TestPeerBodyCap checks the request-size guard: a body past maxWireBodyBytes
// is refused with 413 before the decoder inflates it.
func TestPeerBodyCap(t *testing.T) {
	peer, _ := fuzzPeer(t)
	huge := `{"dataset":"` + strings.Repeat("x", maxWireBodyBytes+1024) + `"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/shard/query", strings.NewReader(huge))
	rec := httptest.NewRecorder()
	peer.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

// TestPeerCandidateCap checks the batch guard: more candidates than any
// legitimate scatter window is a 400, not unbounded work.
func TestPeerCandidateCap(t *testing.T) {
	peer, ds := fuzzPeer(t)
	req := validWireRequest(ds)
	cand := req.Candidates[0]
	req.Candidates = make([]WireCandidate, maxWireCandidates+1)
	for i := range req.Candidates {
		req.Candidates[i] = cand
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/shard/query", bytes.NewReader(mustJSON(t, req)))
	rec := httptest.NewRecorder()
	peer.ServeHTTP(rec, hr)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
}

// TestPeerHealthEndpoint pins the health wire answer the replica sets
// quarantine on.
func TestPeerHealthEndpoint(t *testing.T) {
	peer, ds := fuzzPeer(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard/health", peer.ServeHealth)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/shard/health?dataset=d&from=0&to=60")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var h WireHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Rows != 60 || h.Fingerprint != ds.Slice(0, 60).Fingerprint() || h.Epoch != 1 {
		t.Fatalf("health answer %+v does not match the slice", h)
	}

	for _, bad := range []string{
		"?dataset=d&from=-1&to=5",
		"?dataset=d&from=9&to=3",
		"?dataset=d&from=0&to=99999",
		"?dataset=nope&from=0&to=5",
		"?dataset=d&from=x&to=5",
		"",
	} {
		resp, err := http.Get(ts.URL + "/v1/shard/health" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("query %q: status %d, want 4xx", bad, resp.StatusCode)
		}
	}
}
