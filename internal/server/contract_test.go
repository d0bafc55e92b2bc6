package server_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// decodeEnvelope asserts body carries the typed error envelope and returns
// it.
func decodeEnvelope(t *testing.T, what string, body []byte) server.ErrorBody {
	t.Helper()
	var er struct {
		Error server.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("%s: response is not the error envelope: %v (%s)", what, err, body)
	}
	if er.Error.Code == "" {
		t.Fatalf("%s: envelope has no error code: %s", what, body)
	}
	if er.Error.Message == "" {
		t.Fatalf("%s: envelope has no message: %s", what, body)
	}
	return er.Error
}

// TestErrorContract walks the API's failure paths and holds every one to
// the typed envelope: the documented status, a stable machine-readable
// code, and a human message. Clients branch on (status, code); this test is
// what keeps that contract from drifting route by route.
func TestErrorContract(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	writeCSV(t, tkd.GenerateIND(200, 3, 10, 0.2, 11), csv)
	// One value column more than a dataset can have: a typed 400, not a
	// panic in the handler and a dropped connection.
	wide := filepath.Join(dir, "wide.csv")
	if err := os.WriteFile(wide, []byte("id"+strings.Repeat(",v", 65)+"\na"+strings.Repeat(",1", 65)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := server.New(server.Config{})
	defer s.Close()
	if err := s.LoadCSVFile("file", csv, false); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("mem", tkd.GenerateIND(100, 3, 10, 0.2, 12)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		raw    string // used instead of body when set
		status int
		code   string
	}{
		{"query bad json", "POST", "/v1/datasets/file/query", nil, "{", http.StatusBadRequest, "bad_request"},
		{"query k zero", "POST", "/v1/datasets/file/query", server.QueryRequest{}, "", http.StatusBadRequest, "bad_request"},
		{"query bad algorithm", "POST", "/v1/datasets/file/query", server.QueryRequest{K: 3, Algorithm: "nope"}, "", http.StatusBadRequest, "bad_request"},
		{"query contradiction", "POST", "/v1/datasets/file/query", server.QueryRequest{Dataset: "mem", K: 3}, "", http.StatusBadRequest, "bad_request"},
		{"query names workers", "POST", "/v1/datasets/file/query", nil, `{"k":3,"workers":2}`, http.StatusBadRequest, "bad_request"},
		{"query timeout overflows", "POST", "/v1/datasets/file/query", server.QueryRequest{K: 3, TimeoutMillis: math.MaxInt64/int(time.Millisecond) + 1}, "", http.StatusBadRequest, "bad_request"},
		{"query unknown dataset", "POST", "/v1/datasets/ghost/query", server.QueryRequest{K: 3}, "", http.StatusNotFound, "dataset_not_found"},
		{"subscribe bad json", "POST", "/v1/datasets/file/subscribe", nil, "nope", http.StatusBadRequest, "bad_request"},
		{"subscribe k zero", "POST", "/v1/datasets/file/subscribe", server.SubscribeRequest{}, "", http.StatusBadRequest, "bad_request"},
		{"subscribe wait overflows", "POST", "/v1/datasets/file/subscribe", server.SubscribeRequest{K: 3, WaitMillis: math.MaxInt64/int(time.Millisecond) + 1}, "", http.StatusBadRequest, "bad_request"},
		{"subscribe unknown dataset", "POST", "/v1/datasets/ghost/subscribe", server.SubscribeRequest{K: 3}, "", http.StatusNotFound, "dataset_not_found"},
		{"dataset info unknown", "GET", "/v1/datasets/ghost", nil, "", http.StatusNotFound, "dataset_not_found"},
		{"register bad json", "POST", "/v1/datasets", nil, "{", http.StatusBadRequest, "bad_request"},
		{"register duplicate", "POST", "/v1/datasets", server.RegisterRequest{Name: "file", Path: csv}, "", http.StatusConflict, "dataset_exists"},
		{"register too wide", "POST", "/v1/datasets", server.RegisterRequest{Name: "wide", Path: wide}, "", http.StatusBadRequest, "bad_request"},
		{"reload unknown", "POST", "/v1/datasets/ghost/reload", nil, "", http.StatusNotFound, "dataset_not_found"},
		{"reload sourceless", "POST", "/v1/datasets/mem/reload", nil, "", http.StatusConflict, "not_reloadable"},
		{"evict unknown", "DELETE", "/v1/datasets/ghost", nil, "", http.StatusNotFound, "dataset_not_found"},
		{"append without wal", "POST", "/v1/datasets/file/append", server.AppendRequest{Rows: ingestTestRows()}, "", http.StatusConflict, "ingest_disabled"},
		{"epoch unknown", "GET", "/v1/datasets/ghost/epoch", nil, "", http.StatusNotFound, "dataset_not_found"},
	}
	for _, tc := range cases {
		var code int
		var body []byte
		if tc.raw != "" {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 4096)
			n, _ := resp.Body.Read(b)
			resp.Body.Close()
			code, body = resp.StatusCode, b[:n]
		} else {
			code, body = doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		}
		if code != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.status, body)
			continue
		}
		if got := decodeEnvelope(t, tc.name, body); got.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, got.Code, tc.code)
		}
	}

	// A traceparent on a failing request must surface in the envelope so
	// the failure can be joined with the caller's trace.
	const tp = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/datasets/ghost", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var er struct {
		Error server.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if want := "0123456789abcdef0123456789abcdef"; er.Error.TraceID != want {
		t.Fatalf("trace_id = %q, want %q", er.Error.TraceID, want)
	}
}

// TestSubscribeShardedRefused: shard coordinators have no append/delta
// publish path to hang a standing query on, and say so with a stable code.
func TestSubscribeShardedRefused(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "d.csv")
	writeCSV(t, tkd.GenerateIND(400, 3, 10, 0.2, 13), csv)
	s := server.New(server.Config{Shards: 2})
	defer s.Close()
	if err := s.LoadCSVFile("d", csv, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	code, body := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets/d/subscribe", server.SubscribeRequest{K: 3})
	if code != http.StatusNotImplemented {
		t.Fatalf("sharded subscribe answered %d (%s), want 501", code, body)
	}
	if got := decodeEnvelope(t, "sharded subscribe", body); got.Code != "not_subscribable" {
		t.Fatalf("code %q, want not_subscribable", got.Code)
	}
}

// TestOnlyIBIGServed pins the narrowing of the query routes to one plan:
// on /query and /subscribe the four algorithms the library keeps beside
// IBIG answer 400 bad_request naming the library as where they run, and
// count as no query; an unknown name stays an unknown name; "IBIG" and an
// absent algorithm answer 200 with "algorithm":"IBIG", counted in
// tkd_queries_total under the dataset label alone.
func TestOnlyIBIGServed(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	if err := s.AddDataset("d", tkd.GenerateIND(300, 3, 10, 0.2, 14)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	routes := map[string]func(alg string) any{
		"query":     func(alg string) any { return server.QueryRequest{K: 3, Algorithm: alg} },
		"subscribe": func(alg string) any { return server.SubscribeRequest{K: 3, Algorithm: alg} },
	}
	for route, body := range routes {
		url := ts.URL + "/v1/datasets/d/" + route
		for _, alg := range []string{"Naive", "ESB", "UBB", "BIG"} {
			code, raw := doJSON(t, http.MethodPost, url, body(alg))
			if code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", route, alg, code, raw)
				continue
			}
			got := decodeEnvelope(t, route+" "+alg, raw)
			want := `algorithm "` + alg + `" is not served; the library runs it (tkd.WithAlgorithm)`
			if got.Code != "bad_request" || got.Message != want {
				t.Errorf("%s %s: %s %q, want bad_request %q", route, alg, got.Code, got.Message, want)
			}
		}
		code, raw := doJSON(t, http.MethodPost, url, body("nope"))
		if got := decodeEnvelope(t, route+" nope", raw); code != http.StatusBadRequest || got.Message != `core: unknown algorithm "nope"` {
			t.Errorf("%s nope: status %d, message %q; want 400 for an unknown algorithm", route, code, got.Message)
		}
		for _, alg := range []string{"", "IBIG"} {
			code, raw := doJSON(t, http.MethodPost, url, body(alg))
			var reply struct {
				Algorithm string `json:"algorithm"`
			}
			if err := json.Unmarshal(raw, &reply); code != http.StatusOK || err != nil || reply.Algorithm != "IBIG" {
				t.Errorf("%s %q: status %d, algorithm %q; want 200 and IBIG (%s)", route, alg, code, reply.Algorithm, raw)
			}
		}
	}
	// Each served subscribe is a key's first subscriber, so its answer is a
	// standing evaluation: a query of its own in tkd_queries_total.
	metrics := fetchMetrics(t, ts.URL)
	if got := grepMetric(metrics, "tkd_queries_total{"); got != `[tkd_queries_total{dataset="d"} 4]` {
		t.Errorf("tkd_queries_total samples %s; want the two served queries and the two subscribes' evaluations under the dataset label alone", got)
	}
}

// TestRoutesRegistered: every route the table declares is actually wired
// into the mux — a request to it must reach a handler, never the mux's own
// plain-text 404/405.
func TestRoutesRegistered(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	if err := s.AddDataset("d", tkd.GenerateIND(100, 3, 10, 0.2, 14)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, rt := range server.Routes() {
		path := strings.ReplaceAll(rt.Pattern, "{name}", "d")
		req, err := http.NewRequest(rt.Method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 64)
		n, _ := resp.Body.Read(b)
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed || strings.HasPrefix(string(b[:n]), "404 page not found") {
			t.Errorf("route %s %s is declared but not served (answered %d: %s)",
				rt.Method, rt.Pattern, resp.StatusCode, b[:n])
		}
	}
}

// TestRoutesDocumented holds README.md to the route table: every route the
// server registers must appear in the API reference, so the docs cannot
// silently fall behind the surface (CI runs this).
func TestRoutesDocumented(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	for _, rt := range server.Routes() {
		want := rt.Method + " " + rt.Pattern
		if !strings.Contains(doc, want) {
			t.Errorf("README.md does not document route %q", want)
		}
	}
	// And the converse: every row of the README's route table is a served
	// route, so removing a route cannot leave its documentation behind.
	served := make(map[string]bool)
	for _, rt := range server.Routes() {
		served[rt.Method+" "+rt.Pattern] = true
	}
	for _, m := range regexp.MustCompile("(?m)^\\| `((?:GET|POST|DELETE|PUT) /[^`]*)` \\|").FindAllStringSubmatch(doc, -1) {
		if !served[m[1]] {
			t.Errorf("README.md documents route %q, which the server does not serve", m[1])
		}
	}
	// The error-code glossary must cover every code the envelope can carry.
	for _, code := range []string{
		"bad_request", "dataset_not_found", "dataset_exists", "follower_readonly",
		"ingest_disabled", "not_reloadable", "deadline_exceeded", "degraded_unavailable",
		"draining", "wal_failed", "not_subscribable", "internal",
	} {
		if !strings.Contains(doc, "`"+code+"`") {
			t.Errorf("README.md error-code glossary is missing `%s`", code)
		}
	}
}

// TestMetricsDocumented holds README.md's metrics glossary to the family
// table the way TestRoutesDocumented holds the API reference to the route
// table: every served family has exactly one glossary row, and every
// glossary row names a served family, so neither can move without the other.
func TestMetricsDocumented(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	served := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(rec.Body.String(), -1) {
		served[m[1]] = true
	}
	if len(served) == 0 {
		t.Fatal("an empty server's /metrics declares no family")
	}
	rows := make(map[string]int)
	for _, m := range regexp.MustCompile("(?m)^\\| `(tkd_[a-z_]+)[`{]").FindAllStringSubmatch(string(readme), -1) {
		rows[m[1]]++
	}
	for name := range served {
		if rows[name] != 1 {
			t.Errorf("README.md glossary has %d rows for served family %s, want 1", rows[name], name)
		}
	}
	for name := range rows {
		if !served[name] {
			t.Errorf("README.md glossary documents %s, which /metrics does not serve", name)
		}
	}
}
