package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/tkd"
)

// fastPolicy is a retry policy tuned for test speed: millisecond backoff and
// a short breaker cooldown.
func fastPolicy() tkd.ShardPolicy {
	return tkd.ShardPolicy{
		MaxAttempts:      3,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	}
}

// deadURL returns a URL nothing listens on: an httptest server closed before
// use, so its port is free again and connections are refused.
func deadURL(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	return url
}

func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// startPeer serves the fixture CSV as a plain tkdserver peer.
func startPeer(t *testing.T, csv string) *httptest.Server {
	t.Helper()
	ps := server.New(server.Config{})
	if err := ps.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ps)
	t.Cleanup(func() { ts.Close(); ps.Close() })
	return ts
}

// TestServerQueryDeadline wires a coordinator to peers through a transport
// that hangs every call, and checks the end-to-end deadline contract: a
// query with timeout_millis comes back 504 promptly, the deadline counter
// moves, and the scheduler stays live for the next query.
func TestServerQueryDeadline(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	peer := startPeer(t, csv)

	chaos := shard.NewChaos(shard.ChaosConfig{Seed: 1, TimeoutP: 1})
	pol := fastPolicy()
	coord := server.New(server.Config{
		Shards:      2,
		ShardPeers:  []string{peer.URL},
		ShardClient: &http.Client{Transport: shard.NewChaosTransport(nil, chaos)},
		ShardPolicy: &pol,
	})
	if err := coord.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord)
	defer cts.Close()

	for i := 0; i < 2; i++ {
		start := time.Now()
		_, code := postQuery(t, cts.URL, server.QueryRequest{Dataset: "big", K: 5, TimeoutMillis: 100})
		if code != http.StatusGatewayTimeout {
			t.Fatalf("query %d: status %d, want 504", i, code)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("query %d: deadline took %v to surface — the scheduler is wedged", i, d)
		}
	}
	if _, code := postQuery(t, cts.URL, server.QueryRequest{Dataset: "big", K: 5, TimeoutMillis: -1}); code != http.StatusBadRequest {
		t.Fatalf("negative timeout: status %d, want 400", code)
	}
	if v := metricValue(t, fetchMetrics(t, cts.URL), `tkd_query_deadline_exceeded_total{dataset="big"}`); v < 2 {
		t.Fatalf("tkd_query_deadline_exceeded_total = %v, want >= 2", v)
	}
}

// TestServerDeadlineFreesSlots checks that a query's deadline frees the
// worker slots it holds, not just its client: on 20 k × 4 rows an IBIG query
// at k = 20,000 ranks every row and runs for 0.3–0.5 s (seconds under the
// race detector), so with timeout_millis 100 it answers 504, and a
// k = 16 query sent right after must answer within a second — the engine
// stopped at the deadline and the admission grant came back. Under the race
// detector a window of candidates takes longer to reach its cancellation
// check, so the bound is three seconds there.
func TestServerDeadlineFreesSlots(t *testing.T) {
	bound := time.Second
	if raceEnabled {
		bound = 3 * time.Second
	}
	srv := server.New(server.Config{})
	defer srv.Close()
	if err := srv.AddDataset("d", tkd.GenerateIND(20000, 4, 100, 0.2, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now()
	if _, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "d", K: 20000, TimeoutMillis: 100}); code != http.StatusGatewayTimeout {
		t.Fatalf("k=20000 query with a 100 ms budget: status %d after %v, want 504", code, time.Since(start))
	}
	start = time.Now()
	if _, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "d", K: 16}); code != http.StatusOK {
		t.Fatalf("k=16 query after it: status %d, want 200", code)
	}
	if d := time.Since(start); d > bound {
		t.Fatalf("k=16 query after a timed-out k=20000 one took %v — the timed-out run kept its slots", d)
	}
}

// TestServerReplicaFailover pairs a dead replica with a live one in every
// shard's group and checks queries keep answering exactly, with the retries
// and breaker state visible in /metrics.
func TestServerReplicaFailover(t *testing.T) {
	dir := t.TempDir()
	csv, ref := shardedFixture(t, dir)
	peer := startPeer(t, csv)

	pol := fastPolicy()
	coord := server.New(server.Config{
		Shards:      2,
		ShardPeers:  []string{deadURL(t) + "|" + peer.URL},
		ShardPolicy: &pol,
	})
	if err := coord.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord)
	defer cts.Close()

	want, err := ref.TopK(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		qr, code := postQuery(t, cts.URL, server.QueryRequest{Dataset: "big", K: 7})
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d — failover did not absorb the dead replica", i, code)
		}
		for j, it := range qr.Items {
			w := want.Items[j]
			if it.Index != w.Index || it.ID != w.ID || it.Score != w.Score {
				t.Fatalf("query %d rank %d: got {%d %q %d}, want {%d %q %d}",
					i, j+1, it.Index, it.ID, it.Score, w.Index, w.ID, w.Score)
			}
		}
	}
	body := fetchMetrics(t, cts.URL)
	if v := metricValue(t, body, `tkd_shard_retries_total{dataset="big"}`); v < 1 {
		t.Fatalf("tkd_shard_retries_total = %v, want >= 1", v)
	}
	if !strings.Contains(body, `tkd_shard_breaker_state{dataset="big",shard="0",replica="0"}`) {
		t.Fatal("tkd_shard_breaker_state family missing per-replica rows")
	}
	if !strings.Contains(body, `tkd_shard_replicas_healthy{dataset="big",shard="0"}`) {
		t.Fatal("tkd_shard_replicas_healthy family missing")
	}
}

// TestChaosSoak is the fault-tolerance layer's end-to-end claim: four clients
// query a coordinator whose three shards are two-replica sets reached through
// a transport injecting seeded faults — transport errors, hangs, stale 409s,
// latency spikes. A fault may cost a query an explicit error (503 when the
// retry budget drains or every breaker is open), never a wrong answer: every
// answer that comes back equals the fault-free library run, and every k gets
// at least one compared answer, so a run of errors alone cannot pass. The
// retries and hedges the policy fired must show as spans in the coordinator's
// query-log traces.
func TestChaosSoak(t *testing.T) {
	dir := t.TempDir()
	csv, ref := shardedFixture(t, dir)
	peer := startPeer(t, csv)
	ks := []int{2, 4, 8}
	want := topKItems(t, ref, ks)

	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaos := shard.NewChaos(shard.ChaosConfig{
				Seed:     seed,
				ErrorP:   0.05,
				LatencyP: 0.10,
				Latency:  2 * time.Millisecond,
				StaleP:   0.02,
				TimeoutP: 0.01,
			})
			pol := tkd.ShardPolicy{
				MaxAttempts:      4,
				BaseBackoff:      time.Millisecond,
				MaxBackoff:       20 * time.Millisecond,
				AttemptTimeout:   250 * time.Millisecond,
				Hedge:            true,
				BreakerThreshold: 5,
				BreakerCooldown:  10 * time.Millisecond,
			}
			coord := server.New(server.Config{
				Shards: 3,
				// Both replicas of every shard are the one peer, so a failover
				// always has somewhere correct to land: the non-Byzantine
				// schedule under which answers must stay exact.
				ShardPeers:  []string{peer.URL + "|" + peer.URL},
				ShardClient: &http.Client{Transport: shard.NewChaosTransport(nil, chaos), Timeout: 5 * time.Second},
				ShardPolicy: &pol,
			})
			if err := coord.LoadCSVFile("big", csv, false); err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			cts := httptest.NewServer(coord)
			defer cts.Close()

			const clients, ops = 4, 15
			var (
				mu       sync.Mutex
				compared = map[int]int{}
				errored  atomic.Int64
				wg       sync.WaitGroup
			)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						k := ks[(c+i)%len(ks)]
						qr, code := postQuery(t, cts.URL, server.QueryRequest{Dataset: "big", K: k})
						if code != http.StatusOK {
							errored.Add(1)
							continue
						}
						if !slices.Equal(qr.Items, want[k]) {
							t.Errorf("k=%d: wrong answer under faults: %+v, want %+v", k, qr.Items, want[k])
						}
						mu.Lock()
						compared[k]++
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			t.Logf("compared per k %v, errored %d of %d, injected %+v", compared, errored.Load(), clients*ops, chaos.Counts())
			for _, k := range ks {
				if compared[k] == 0 {
					t.Errorf("k=%d: no answer compared, every query errored", k)
				}
			}

			// Every query was traced into the coordinator's ring; count the
			// fault-handling spans in it.
			resp, err := http.Get(fmt.Sprintf("%s/v1/debug/queries?n=%d&trace=1", cts.URL, clients*ops))
			if err != nil {
				t.Fatal(err)
			}
			var dq struct {
				Queries []struct {
					Trace *obs.TraceJSON `json:"trace"`
				} `json:"queries"`
			}
			err = json.NewDecoder(resp.Body).Decode(&dq)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var retrySpans, hedgeSpans int
			for _, q := range dq.Queries {
				if q.Trace == nil {
					continue
				}
				spans := collectSpans(q.Trace.Root)
				retrySpans += len(spansNamed(spans, "retry"))
				for _, sp := range spansNamed(spans, "attempt") {
					if sp.Attrs["hedged"] == float64(1) {
						hedgeSpans++
					}
				}
			}
			retries := metricValue(t, fetchMetrics(t, cts.URL), `tkd_shard_retries_total{dataset="big"}`)
			hedges := coord.ShardHedges("big")
			t.Logf("retries %v (%d spans), hedges %d (%d spans)", retries, retrySpans, hedges, hedgeSpans)
			if retries > 0 && retrySpans == 0 {
				t.Errorf("%v retries fired but no retry span was traced", retries)
			}
			if hedges > 0 && hedgeSpans == 0 {
				t.Errorf("%d hedges fired but no hedged attempt span was traced", hedges)
			}
		})
	}
}

// TestServerDegradedMode points one shard's only replica at a dead address:
// the default query fails closed with 503, and allow_partial answers 200
// with the degradation visible in the response body and /metrics.
func TestServerDegradedMode(t *testing.T) {
	dir := t.TempDir()
	csv, _ := shardedFixture(t, dir)
	peer := startPeer(t, csv)

	pol := fastPolicy()
	coord := server.New(server.Config{
		Shards:      2,
		ShardPeers:  []string{deadURL(t), peer.URL}, // shard 0 dead, shard 1 live
		ShardPolicy: &pol,
	})
	if err := coord.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord)
	defer cts.Close()

	if _, code := postQuery(t, cts.URL, server.QueryRequest{Dataset: "big", K: 5}); code != http.StatusServiceUnavailable {
		t.Fatalf("fail-closed query: status %d, want 503", code)
	}

	qr, code := postQuery(t, cts.URL, server.QueryRequest{Dataset: "big", K: 5, AllowPartial: true})
	if code != http.StatusOK {
		t.Fatalf("allow_partial query: status %d, want 200", code)
	}
	if !qr.Degraded {
		t.Fatal("allow_partial answer not marked degraded")
	}
	if qr.CoveredRows <= 0 || qr.CoveredRows >= qr.TotalRows {
		t.Fatalf("coverage %d/%d: want a strict subset", qr.CoveredRows, qr.TotalRows)
	}
	if len(qr.Items) != 5 {
		t.Fatalf("degraded answer has %d items, want 5", len(qr.Items))
	}

	body := fetchMetrics(t, cts.URL)
	if v := metricValue(t, body, `tkd_shard_degraded_queries_total{dataset="big"}`); v < 1 {
		t.Fatalf("tkd_shard_degraded_queries_total = %v, want >= 1", v)
	}

	// A full answer must not carry the degraded marker: query the live
	// topology through a second coordinator with both shards on the peer.
	coord2 := server.New(server.Config{Shards: 2, ShardPeers: []string{peer.URL}, ShardPolicy: &pol})
	if err := coord2.LoadCSVFile("big", csv, false); err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	cts2 := httptest.NewServer(coord2)
	defer cts2.Close()
	qr2, code := postQuery(t, cts2.URL, server.QueryRequest{Dataset: "big", K: 5, AllowPartial: true})
	if code != http.StatusOK {
		t.Fatalf("healthy allow_partial query: status %d", code)
	}
	if qr2.Degraded || qr2.CoveredRows != 0 {
		t.Fatalf("healthy topology answered degraded=%v covered=%d", qr2.Degraded, qr2.CoveredRows)
	}
}
