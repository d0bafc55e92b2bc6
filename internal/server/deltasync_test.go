package server_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// TestFollowerDeltaSync is the delta-shipping acceptance test: after a
// 64-row append on the leader, the follower converges through a rows-since
// delta that puts strictly fewer bytes on the wire than the full epoch
// stream would, and both ends answer queries byte-identically under the
// same fingerprint.
func TestFollowerDeltaSync(t *testing.T) {
	ref := tkd.GenerateIND(2000, 4, 20, 0.2, 91)
	d := newIngestDirs(t, ref)
	cfg := ingestConfig(d, 20*time.Millisecond)
	leader, lts := startIngestServer(t, cfg, d)
	defer func() { lts.Close(); leader.Close() }()

	fol := server.New(server.Config{Follow: lts.URL, FollowInterval: 10 * time.Millisecond})
	fts := httptest.NewServer(fol)
	defer func() { fts.Close(); fol.Close() }()
	waitUntil(t, "follower bootstrap", func() bool {
		info, ok := listDatasets(t, fts.URL)["d"]
		return ok && info.Followed && info.Objects == ref.Len()
	})

	// Size the full stream before the append so the comparison is honest:
	// this is what a non-delta sync of the grown epoch would at least cost.
	fullBytes := epochStreamSize(t, lts.URL)

	rows := make([]server.AppendRow, 64)
	for i := range rows {
		v := func(x int) *float64 { return fptr(float64(x % 19)) }
		rows[i] = server.AppendRow{
			ID:     fmt.Sprintf("app%03d", i),
			Values: []*float64{v(i * 7), v(i*11 + 3), v(i*13 + 5), v(i*17 + 1)},
		}
	}
	appendRows(t, lts.URL, rows)
	waitFor(t, "leader publish", func() bool {
		return datasetInfo(t, lts.URL).Objects == ref.Len()+64
	})
	if datasetInfo(t, lts.URL).DeltaPublishes < 1 {
		t.Fatal("leader publish did not patch the index in place")
	}

	leaderEpoch := listDatasets(t, lts.URL)["d"].Epoch
	waitUntil(t, "follower delta sync", func() bool {
		info, ok := listDatasets(t, fts.URL)["d"]
		return ok && info.Objects == ref.Len()+64 && info.LeaderEpoch >= leaderEpoch
	})

	// The sync must have gone over the delta path, not a full re-transfer.
	if got := metricValue(t, getBody(t, fts.URL+"/metrics"), "tkd_follower_delta_syncs_total"); got < 1 {
		t.Fatalf("follower delta syncs = %v, want >= 1", got)
	}
	if got := metricValue(t, getBody(t, lts.URL+"/metrics"), "tkd_epoch_delta_ships_total"); got < 1 {
		t.Fatalf("leader delta ships = %v, want >= 1", got)
	}
	deltaBytes := metricValue(t, getBody(t, lts.URL+"/metrics"), "tkd_epoch_delta_ship_bytes_total")
	if deltaBytes <= 0 || deltaBytes >= float64(fullBytes) {
		t.Fatalf("delta shipped %v bytes, want strictly under the %d-byte full stream", deltaBytes, fullBytes)
	}

	// Convergence is fingerprint-deep: the follower's epoch endpoint must
	// answer 304 for the leader's exact bytes…
	req, err := http.NewRequest(http.MethodGet, fts.URL+"/v1/datasets/d/epoch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-TKD-Have-Fingerprint", epochFingerprint(t, lts.URL))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("follower fingerprint check answered %d, want 304", resp.StatusCode)
	}

	// …and both ends rank identically.
	lr, code := postQuery(t, lts.URL, server.QueryRequest{Dataset: "d", K: 10})
	if code != http.StatusOK {
		t.Fatalf("leader query answered %d", code)
	}
	fr, code := postQuery(t, fts.URL, server.QueryRequest{Dataset: "d", K: 10})
	if code != http.StatusOK {
		t.Fatalf("follower query answered %d", code)
	}
	if len(lr.Items) != len(fr.Items) {
		t.Fatalf("answer sizes differ: %d vs %d", len(lr.Items), len(fr.Items))
	}
	for i := range lr.Items {
		if lr.Items[i] != fr.Items[i] {
			t.Fatalf("answers diverge at rank %d: leader %+v, follower %+v", i+1, lr.Items[i], fr.Items[i])
		}
	}
}

// epochStreamSize fetches the full epoch stream and returns its body size.
func epochStreamSize(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/datasets/d/epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch stream answered %d", resp.StatusCode)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// epochFingerprint reads the fingerprint header off the epoch endpoint.
func epochFingerprint(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/v1/datasets/d/epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	fp := resp.Header.Get("X-TKD-Fingerprint")
	if fp == "" {
		t.Fatal("epoch endpoint sent no fingerprint")
	}
	return fp
}
