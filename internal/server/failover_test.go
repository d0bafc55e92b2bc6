package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

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
