package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/tkd"
)

// testDatasets builds the two workloads the end-to-end test serves, plus an
// independent identically generated copy of each for serial ground truth.
// "ac" has complete rows, so each dimension's missing column is all zeros.
func testDatasets() (serve, ref map[string]*tkd.Dataset) {
	mk := func() map[string]*tkd.Dataset {
		return map[string]*tkd.Dataset{
			"ac":  tkd.GenerateAC(4000, 4, 40, 0, 3),
			"ind": tkd.GenerateIND(900, 5, 30, 0.15, 9),
		}
	}
	return mk(), mk()
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, map[string]*tkd.Dataset) {
	t.Helper()
	serve, ref := testDatasets()
	s := server.New(cfg)
	for name, ds := range serve {
		if err := s.AddDataset(name, ds); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, ref
}

func postQuery(t *testing.T, url string, req server.QueryRequest) (server.QueryResponse, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/datasets/"+req.Dataset+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return server.QueryResponse{}, resp.StatusCode
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return qr, resp.StatusCode
}

// topKItems is the library's answer over ds at each k, spelled as the query
// endpoint returns it.
func topKItems(t *testing.T, ds *tkd.Dataset, ks []int) map[int][]server.QueryItem {
	t.Helper()
	out := map[int][]server.QueryItem{}
	for _, k := range ks {
		res, err := ds.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range res.Items {
			out[k] = append(out[k], server.QueryItem{Rank: i + 1, Index: it.Index, ID: it.ID, Score: it.Score})
		}
	}
	return out
}

// TestEndToEnd is the acceptance test of the serving subsystem: two resident
// datasets, 48 concurrent queries with mixed k, the algorithm named IBIG or
// left out, every response byte-identical to a serial Naive tkd.TopK over
// the same data, and /metrics counting every query.
func TestEndToEnd(t *testing.T) {
	_, ts, ref := newTestServer(t, server.Config{MaxWorkers: 4})

	type tq struct {
		dataset string
		k       int
		alg     string
	}
	shapes := []tq{
		{"ac", 3, "IBIG"}, {"ac", 5, "IBIG"}, {"ac", 8, "IBIG"},
		{"ac", 5, ""}, {"ac", 7, ""}, {"ac", 4, "IBIG"},
		{"ac", 6, ""}, {"ac", 2, ""}, // empty algorithm = IBIG
		{"ind", 4, "IBIG"}, {"ind", 9, "IBIG"}, {"ind", 2, "IBIG"},
		{"ind", 6, ""}, {"ind", 3, ""}, {"ind", 5, "IBIG"},
		{"ind", 7, ""}, {"ind", 12, ""},
	}
	// Serial ground truth from untouched copies of the same data, by the
	// paper's definition (Naive), which every algorithm returns item for item.
	want := make(map[tq]tkd.Result)
	for _, q := range shapes {
		res, err := ref[q.dataset].TopK(q.k, tkd.WithAlgorithm(tkd.Naive))
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res
	}

	const rounds = 3 // 16 shapes x 3 rounds = 48 concurrent queries
	var wg sync.WaitGroup
	for g := 0; g < len(shapes)*rounds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := shapes[g%len(shapes)]
			qr, code := postQuery(t, ts.URL, server.QueryRequest{
				Dataset: q.dataset, K: q.k, Algorithm: q.alg,
			})
			if code != http.StatusOK {
				t.Errorf("query %+v: HTTP %d", q, code)
				return
			}
			exp := want[q]
			if len(qr.Items) != len(exp.Items) {
				t.Errorf("query %+v: %d items, want %d", q, len(qr.Items), len(exp.Items))
				return
			}
			for i, it := range qr.Items {
				w := exp.Items[i]
				if it.Rank != i+1 || it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
					t.Errorf("query %+v: item %d = %+v, want index=%d id=%s score=%d",
						q, i, it, w.Index, w.ID, w.Score)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// /metrics: the query counters must cover both datasets.
	metrics := getBody(t, ts.URL+"/metrics")
	if got := sumMetric(t, metrics, "tkd_queries_total"); got != int64(len(shapes)*rounds) {
		t.Errorf("tkd_queries_total = %d, want %d", got, len(shapes)*rounds)
	}
	if sumMetric(t, metrics, "tkd_query_errors_total") != 0 {
		t.Error("query errors recorded")
	}

	// /v1/datasets lists both datasets with their true shapes.
	var dl struct {
		Datasets []server.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/v1/datasets")), &dl); err != nil {
		t.Fatal(err)
	}
	if len(dl.Datasets) != 2 {
		t.Fatalf("/v1/datasets listed %d datasets, want 2", len(dl.Datasets))
	}
	for _, d := range dl.Datasets {
		if d.Objects != ref[d.Name].Len() || d.Dims != ref[d.Name].Dim() {
			t.Errorf("dataset %s listed as %dx%d, want %dx%d",
				d.Name, d.Objects, d.Dims, ref[d.Name].Len(), ref[d.Name].Dim())
		}
		if d.Queries == 0 {
			t.Errorf("dataset %s reports zero queries after the storm", d.Name)
		}
	}

	// /healthz answers.
	if body := getBody(t, ts.URL+"/healthz"); !bytes.Contains([]byte(body), []byte(`"ok"`)) {
		t.Errorf("healthz = %s", body)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// sumMetric adds up every sample of a counter across its label sets.
func sumMetric(t *testing.T, metrics, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? (\d+)$`)
	var total int64
	for _, m := range re.FindAllStringSubmatch(metrics, -1) {
		v, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatalf("parsing %s sample %q: %v", name, m[1], err)
		}
		total += v
	}
	return total
}

func grepMetric(metrics, name string) string {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `.*$`)
	return fmt.Sprint(re.FindAllString(metrics, -1))
}

// TestCoalescing pins the batch scheduler's dedup: a burst of identical
// queries that queues behind running work — here every worker slot is held
// until the whole burst waits in line — runs once and fans out, with the
// coalesced flag, the batch size and the counter reflecting it.
func TestCoalescing(t *testing.T) {
	s, ts, _ := newTestServer(t, server.Config{MaxWorkers: 2})
	release := s.HoldSlots()
	const burst = 12
	var wg sync.WaitGroup
	responses := make([]server.QueryResponse, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "ac", K: 5, Algorithm: "IBIG"})
			if code != http.StatusOK {
				t.Errorf("HTTP %d", code)
				return
			}
			responses[i] = qr
		}(i)
	}
	waitFor(t, "the burst to wait behind the held slots", func() bool { return s.Waiting("ac") == burst })
	release()
	wg.Wait()
	coalesced := 0
	for _, qr := range responses {
		if qr.Coalesced {
			coalesced++
		}
		if qr.BatchSize != burst {
			t.Errorf("a query was answered by an execution of %d requests, want the whole burst of %d", qr.BatchSize, burst)
		}
	}
	if coalesced != burst-1 {
		t.Errorf("%d of a %d-wide identical burst coalesced, want %d", coalesced, burst, burst-1)
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if sumMetric(t, metrics, "tkd_coalesced_queries_total") != int64(coalesced) {
		t.Errorf("coalesced counter = %d, responses said %d",
			sumMetric(t, metrics, "tkd_coalesced_queries_total"), coalesced)
	}
}

// TestValidation covers the API's error paths.
func TestValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	cases := []struct {
		req  server.QueryRequest
		code int
	}{
		{server.QueryRequest{Dataset: "nope", K: 3}, http.StatusNotFound},
		{server.QueryRequest{Dataset: "ac", K: 0}, http.StatusBadRequest},
		{server.QueryRequest{Dataset: "ac", K: 3, Algorithm: "QUICKSORT"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if _, code := postQuery(t, ts.URL, c.req); code != c.code {
			t.Errorf("%+v: HTTP %d, want %d", c.req, code, c.code)
		}
	}
	// GET on the query endpoint is rejected.
	resp, err := http.Get(ts.URL + "/v1/datasets/ac/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/datasets/ac/query: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestDuplicateRegistration pins the registry's name uniqueness.
func TestDuplicateRegistration(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	ds := tkd.GenerateIND(50, 3, 10, 0.1, 1)
	if err := s.AddDataset("x", ds); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("x", tkd.GenerateIND(50, 3, 10, 0.1, 2)); err == nil {
		t.Fatal("duplicate name registered without error")
	}
}
