package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/tkd"
)

// postQueryRaw posts a query body to the "big" dataset (the one every trace
// test serves) with optional headers and returns the raw response bytes and
// status.
func postQueryRaw(t *testing.T, url string, body string, headers map[string]string) ([]byte, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/datasets/big/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw, resp.StatusCode
}

// collectSpans flattens a rendered trace tree depth-first.
func collectSpans(root *obs.SpanJSON) []*obs.SpanJSON {
	if root == nil {
		return nil
	}
	out := []*obs.SpanJSON{root}
	for _, c := range root.Children {
		out = append(out, collectSpans(c)...)
	}
	return out
}

func spansNamed(spans []*obs.SpanJSON, name string) []*obs.SpanJSON {
	var out []*obs.SpanJSON
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestExplainReturnsTraceTree runs an explain query against a sharded
// in-process dataset and checks the full tree: root → queue + execute →
// engine, with the shard count, the paper's pruning counters and a τ
// trajectory on the engine span and nothing under it — in-process shards run
// the serial candidate loop, which opens no window and makes no per-call
// span. (TestRemoteTracePropagation reads the peer plan's phases.)
func TestExplainReturnsTraceTree(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	s := server.New(server.Config{Shards: 2})
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	raw, code := postQueryRaw(t, ts.URL, `{"dataset":"big","k":5,"algorithm":"IBIG","explain":true}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("explain:true returned no trace")
	}
	if qr.Trace.TraceID == "" || qr.Trace.Root == nil {
		t.Fatalf("incomplete trace: %+v", qr.Trace)
	}
	spans := collectSpans(qr.Trace.Root)

	if qr.Trace.Root.Name != "query" {
		t.Fatalf("root span %q, want query", qr.Trace.Root.Name)
	}
	if qr.Trace.Root.Attrs["dataset"] != "big" || qr.Trace.Root.Attrs["k"] != float64(5) {
		t.Fatalf("root attrs: %v", qr.Trace.Root.Attrs)
	}
	if len(spansNamed(spans, "queue")) != 1 {
		t.Fatal("no queue span")
	}
	engines := spansNamed(spans, "engine")
	if len(engines) != 1 {
		t.Fatalf("%d engine spans, want 1", len(engines))
	}
	eng := engines[0]
	// The paper's pruning counters ride on the engine span; on this fixture
	// IBIG always prunes something.
	for _, key := range []string{"candidates", "scored", "pruned_h1", "pruned_h2", "pruned_h3", "comparisons", "windows"} {
		if _, ok := eng.Attrs[key]; !ok {
			t.Errorf("engine span missing %s attr: %v", key, eng.Attrs)
		}
	}
	if eng.Attrs["algorithm"] != "IBIG" {
		t.Fatalf("engine algorithm attr: %v", eng.Attrs["algorithm"])
	}
	// τ trajectory: starts at -1 (heap not yet full) and is sampled at least
	// once more by the windowed scan.
	if len(eng.Tau) < 2 || eng.Tau[0][1] != -1 {
		t.Fatalf("τ trajectory: %v", eng.Tau)
	}
	if eng.Attrs["shards"] != float64(2) || len(eng.Children) != 0 {
		t.Fatalf("engine span: shards attr %v and %d children, want 2 and none", eng.Attrs["shards"], len(eng.Children))
	}
}

// TestExplainOffLeavesResponseUnchanged pins the zero-cost contract: without
// "explain" the response carries no trace key at all — byte-identical shape
// to a server that never heard of tracing.
func TestExplainOffLeavesResponseUnchanged(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	s := server.New(server.Config{})
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	raw, code := postQueryRaw(t, ts.URL, `{"dataset":"big","k":4}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Fatalf("explain-off response leaks trace data: %s", raw)
	}
	var asMap map[string]json.RawMessage
	if err := json.Unmarshal(raw, &asMap); err != nil {
		t.Fatal(err)
	}
	if _, ok := asMap["trace"]; ok {
		t.Fatal("trace key present without explain")
	}
}

// TestTraceparentAdoption checks W3C propagation at the front door: a valid
// incoming traceparent is adopted (same trace ID, caller's span as parent),
// and malformed values are ignored — never rejected — with a fresh trace
// minted instead.
func TestTraceparentAdoption(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	s := server.New(server.Config{})
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const sid = "00f067aa0ba902b7"
	raw, code := postQueryRaw(t, ts.URL, `{"dataset":"big","k":3,"explain":true}`,
		map[string]string{"traceparent": "00-" + tid + "-" + sid + "-01"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace.TraceID != tid {
		t.Fatalf("trace ID %s, want adopted %s", qr.Trace.TraceID, tid)
	}
	if qr.Trace.ParentSpan != sid {
		t.Fatalf("parent span %s, want %s", qr.Trace.ParentSpan, sid)
	}

	for _, malformed := range []string{
		"garbage",
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // zero trace ID
		"ff-" + tid + "-" + sid + "-01",                     // reserved version
		strings.ToUpper("00-" + tid + "-" + sid + "-01"),
	} {
		raw, code := postQueryRaw(t, ts.URL, `{"dataset":"big","k":3,"explain":true}`,
			map[string]string{"traceparent": malformed})
		if code != http.StatusOK {
			t.Fatalf("traceparent %q: status %d — malformed headers must be ignored, not rejected", malformed, code)
		}
		var fresh server.QueryResponse
		if err := json.Unmarshal(raw, &fresh); err != nil {
			t.Fatal(err)
		}
		if fresh.Trace == nil || fresh.Trace.TraceID == tid || fresh.Trace.ParentSpan != "" {
			t.Fatalf("traceparent %q: trace %+v — want a fresh local trace", malformed, fresh.Trace)
		}
	}
}

// TestRemoteTracePropagation is the cross-process contract: a sharded query
// served by remote peers comes back as ONE trace — the coordinator's tree
// holds per-shard RPC spans whose replica attempts carry the peer-side
// summary (same trace ID, remote service time, rows scanned) stamped by the
// far side of the wire.
func TestRemoteTracePropagation(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)

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
	coord := server.New(server.Config{Shards: 2, ShardPeers: peerURLs})
	if err := coord.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord)
	defer cts.Close()

	raw, code := postQueryRaw(t, cts.URL, `{"dataset":"big","k":6,"algorithm":"IBIG","explain":true}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("no trace on the sharded explain response")
	}
	spans := collectSpans(qr.Trace.Root)
	// The peer plan's tree: engine → window → scatter/gather → one shard
	// span per shard, under which the replica set's attempts nest.
	if len(spansNamed(spans, "window")) == 0 {
		t.Fatal("no window spans under the engine")
	}
	for _, name := range []string{"scatter", "gather"} {
		phases := spansNamed(spans, name)
		if len(phases) == 0 {
			t.Fatalf("no %s phase span", name)
		}
		for _, ph := range phases {
			if n := len(spansNamed(ph.Children, "shard")); n != 2 {
				t.Fatalf("%s phase has %d shard spans, want 2", name, n)
			}
		}
	}
	attempts := spansNamed(spans, "attempt")
	if len(attempts) == 0 {
		t.Fatal("no replica attempt spans in the coordinator's trace")
	}
	withRemote := 0
	for _, a := range attempts {
		if a.Remote == nil {
			continue
		}
		withRemote++
		if a.Remote.TraceID != qr.Trace.TraceID {
			t.Fatalf("peer served trace %s inside trace %s — the ID did not propagate", a.Remote.TraceID, qr.Trace.TraceID)
		}
		if a.Remote.SpanID == "" || a.Remote.Rows <= 0 {
			t.Fatalf("peer summary incomplete: %+v", a.Remote)
		}
		if a.Remote.ServiceUS > a.DurUS {
			t.Fatalf("remote service %dµs exceeds the local attempt span %dµs", a.Remote.ServiceUS, a.DurUS)
		}
	}
	if withRemote == 0 {
		t.Fatal("no attempt span carries a peer-side summary")
	}

	// The peers logged the adopted trace in their own query rings: same ID.
	found := false
	for _, u := range peerURLs {
		resp, err := http.Get(u + "/v1/debug/queries?n=50&trace=1")
		if err != nil {
			t.Fatal(err)
		}
		var dq struct {
			Queries []struct {
				Dataset string         `json:"dataset"`
				TraceID string         `json:"trace_id"`
				Trace   *obs.TraceJSON `json:"trace"`
			} `json:"queries"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&dq); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		for _, q := range dq.Queries {
			if q.TraceID == qr.Trace.TraceID {
				found = true
				if q.Trace == nil || q.Trace.ParentSpan == "" {
					t.Fatalf("peer-side trace lost its parent link: %+v", q.Trace)
				}
			}
		}
	}
	if !found {
		t.Fatal("no peer logged a query under the coordinator's trace ID")
	}
}

// TestDebugQueriesEndpoint drives the in-memory query log surface.
func TestDebugQueriesEndpoint(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	s := server.New(server.Config{})
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		if _, code := postQueryRaw(t, ts.URL, `{"dataset":"big","k":4}`, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	var dq struct {
		Queries []struct {
			Dataset   string         `json:"dataset"`
			K         int            `json:"k"`
			Algorithm string         `json:"algorithm"`
			TraceID   string         `json:"trace_id"`
			Trace     *obs.TraceJSON `json:"trace"`
		} `json:"queries"`
	}
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		dq.Queries = nil
		if err := json.NewDecoder(resp.Body).Decode(&dq); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := get("/v1/debug/queries?n=2"); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(dq.Queries) != 2 {
		t.Fatalf("%d entries, want 2", len(dq.Queries))
	}
	q := dq.Queries[0]
	if q.Dataset != "big" || q.K != 4 || q.Algorithm != "IBIG" || q.TraceID == "" {
		t.Fatalf("entry: %+v", q)
	}
	if q.Trace != nil {
		t.Fatal("trace tree included without ?trace=1")
	}
	if code := get("/v1/debug/queries?sort=slow&trace=1"); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(dq.Queries) == 0 || dq.Queries[0].Trace == nil || dq.Queries[0].Trace.Root == nil {
		t.Fatal("?trace=1 did not include trace trees")
	}
	for _, bad := range []string{"?n=0", "?n=-2", "?n=x", "?sort=sideways"} {
		if code := get("/v1/debug/queries" + bad); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, code)
		}
	}
}

// TestStageMetricsExposed checks the Prometheus surface: per-stage latency
// histograms populated by completed traces, and the build-info gauge. The
// dataset's shards are served by a peer, so the query fans out and its
// scatter and gather phases have spans to time.
func TestStageMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	ps := server.New(server.Config{})
	if err := ps.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	pts := httptest.NewServer(ps)
	defer pts.Close()
	s := server.New(server.Config{Shards: 2, ShardPeers: []string{pts.URL}})
	if err := s.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, code := postQueryRaw(t, ts.URL, `{"dataset":"big","k":5}`, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	body := getURL2(t, ts.URL+"/metrics")
	for _, stage := range []string{"queue", "engine", "scatter", "gather"} {
		if v := metricValue(t, body, `tkd_query_stage_seconds_count{stage="`+stage+`"}`); v == 0 {
			t.Errorf("stage %q histogram empty after a sharded query", stage)
		}
	}
	if !regexp.MustCompile(`(?m)^tkd_build_info\{version="[^"]*",go="go[^"]*",gomaxprocs="\d+"\} 1$`).MatchString(body) {
		t.Errorf("tkd_build_info gauge missing or malformed:\n%s", grepLine2(body, "tkd_build_info"))
	}
}

// TestGrantAndQueueSpans pins what a trace says about admission: two distinct
// queries that queue behind running work on a 2-slot server — here both
// slots are held until both queries wait in line — are granted one worker
// each and run side by side. Each one's queue span is a leaf that ends where
// its execute span begins, after the slots were handed back, and the two
// spans together fit inside the latency the client saw. A lone query on the
// idle server dispatches at once, is granted both slots (its fair share: an
// IBIG query over more than one kernel block of rows can use them, see
// TestGrantCappedAtUsefulWorkers) and waits for none of them.
func TestGrantAndQueueSpans(t *testing.T) {
	s, ts, _ := newTestServer(t, server.Config{MaxWorkers: 2})
	if err := s.AddDataset("wide", tkd.GenerateIND(bitvec.BlockBits+1, 4, 100, 0.2, 3)); err != nil {
		t.Fatal(err)
	}
	type observed struct {
		qr      server.QueryResponse
		latency time.Duration
	}
	explain := func(k int) observed {
		start := time.Now()
		qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "wide", K: k, Explain: true})
		if code != http.StatusOK || qr.Trace == nil {
			t.Errorf("k=%d: HTTP %d, trace %v", k, code, qr.Trace)
		}
		return observed{qr, time.Since(start)}
	}
	// spansOf returns a reply's queue and execute spans; begin and end place
	// a span on the wall clock, so spans of different traces compare.
	spansOf := func(o observed) (queue, exec *obs.SpanJSON) {
		spans := collectSpans(o.qr.Trace.Root)
		queues, execs := spansNamed(spans, "queue"), spansNamed(spans, "execute")
		if len(queues) != 1 || len(execs) != 1 {
			t.Fatalf("%d queue / %d execute spans, want 1 / 1", len(queues), len(execs))
		}
		if len(queues[0].Children) != 0 {
			t.Fatalf("queue children %+v, want a leaf", queues[0].Children)
		}
		return queues[0], execs[0]
	}
	begin := func(o observed, sp *obs.SpanJSON) time.Time {
		return o.qr.Trace.Start.Add(time.Duration(sp.StartUS) * time.Microsecond)
	}
	end := func(o observed, sp *obs.SpanJSON) time.Time {
		return begin(o, sp).Add(time.Duration(sp.DurUS) * time.Microsecond)
	}

	// Ranking 3,000 of the 8,193 rows takes tens of milliseconds on one
	// worker, long enough for the two executions to overlap for certain once
	// the slots come back together.
	release := s.HoldSlots()
	var pair [2]observed
	var wg sync.WaitGroup
	for i, k := range []int{3000, 3001} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i] = explain(k)
		}()
	}
	waitFor(t, "both queries to wait behind the held slots", func() bool { return s.Waiting("wide") == 2 })
	released := time.Now()
	release()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var execs [2]*obs.SpanJSON
	for i, o := range pair {
		queue, exec := spansOf(o)
		execs[i] = exec
		if o.qr.Workers != 1 || exec.Attrs["granted"] != float64(1) {
			t.Errorf("query %d: workers %d, granted attr %v; want 1 of the 2 slots each", i, o.qr.Workers, exec.Attrs["granted"])
		}
		if o.qr.BatchSize != 1 {
			t.Errorf("query %d: its execution answered %d requests, want 1", i, o.qr.BatchSize)
		}
		if end(o, queue).Before(released.Add(-time.Millisecond)) {
			t.Errorf("query %d: queue ended %v before the slots were handed back", i, released.Sub(end(o, queue)))
		}
		if gap := begin(o, exec).Sub(end(o, queue)); gap < -time.Millisecond || gap > 20*time.Millisecond {
			t.Errorf("query %d: execute begins %v after queue ends; the two must meet", i, gap)
		}
		if covered := time.Duration(queue.DurUS+exec.DurUS) * time.Microsecond; covered > o.latency {
			t.Errorf("query %d: queue + execute = %v exceeds the observed latency %v", i, covered, o.latency)
		}
	}
	if !begin(pair[0], execs[0]).Before(end(pair[1], execs[1])) || !begin(pair[1], execs[1]).Before(end(pair[0], execs[0])) {
		t.Errorf("execute spans do not overlap: %+v and %+v", execs[0], execs[1])
	}

	lone := explain(5)
	if t.Failed() {
		t.FailNow()
	}
	queue, exec := spansOf(lone)
	if lone.qr.Workers != 2 || exec.Attrs["granted"] != float64(2) {
		t.Errorf("lone query: workers %d, granted attr %v; want both slots", lone.qr.Workers, exec.Attrs["granted"])
	}
	// Nothing else runs, so the query dispatches at once and its grant is
	// immediate: the queue span is the few microseconds between the handler
	// and the group's goroutine.
	if d := time.Duration(queue.DurUS) * time.Microsecond; d > 5*time.Millisecond {
		t.Errorf("lone query queued %v, want ≈ 0", d)
	}
}

// TestGrantCappedAtUsefulWorkers pins the fair share's cap
// (core.UsefulWorkers): on an idle 2-slot server a lone query over at most
// one kernel block of rows is granted one slot and its answer reports
// workers 1, while a query over one row more than a block is granted what it
// would be without the cap. The cap's other
// algorithms are core's table test, TestUsefulWorkers.
func TestGrantCappedAtUsefulWorkers(t *testing.T) {
	s, ts, _ := newTestServer(t, server.Config{MaxWorkers: 2})
	if err := s.AddDataset("block", tkd.GenerateIND(bitvec.BlockBits+1, 3, 50, 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dataset, alg string
		granted      int
	}{
		{"ac", "", 1}, // IBIG, the default
		{"block", "IBIG", 2},
	} {
		// Each query runs alone: a group hands its slots back before it
		// replies.
		qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: c.dataset, K: 5, Algorithm: c.alg})
		if code != http.StatusOK || qr.Workers != c.granted {
			t.Errorf("%s %q: HTTP %d, granted %d; want %d", c.dataset, c.alg, code, qr.Workers, c.granted)
		}
	}
}

func getURL2(t *testing.T, url string) string {
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
	return string(b)
}

func grepLine2(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
