package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/tkd"
)

// FuzzAppendBody drives POST /v1/datasets/{name}/append with arbitrary bodies
// against one WAL-backed leader (-fsync none). Every body gets 200 or a typed
// 4xx envelope, and every accepted batch, once published, crosses the epoch
// stream from both kinds of base under the leader's fingerprint: a follower
// at the previous epoch applies the stream from that epoch, and the stream
// from the empty base imports afresh.
func FuzzAppendBody(f *testing.F) {
	for _, body := range []string{
		`{"rows":[{"id":"a","values":[1,2,3]}]}`,
		`{"rows":[{"id":"b","values":[1,null,3]},{"id":"c","values":[null,null,7.5]}]}`,
		`{"rows":[{"id":"d","values":[1,2]}]}`,
		`{"rows":[]}`,
		`{"rows":[{"id":"` + strings.Repeat("x", 65536) + `","values":[1,2,3]}]}`,
		`{"rows":[{"id":"a\r\nb","values":[1,2,3]}]}`,
		`{"rows":[{"id":"a\rb","values":[1,2,3]},{"id":"a,\"b\"\n","values":[4,5,6]}]}`,
		`{"rows":[{"id":"e","values":[1,2,3]}]}trailing garbage`,
	} {
		f.Add([]byte(body))
	}
	d := newIngestDirs(f, tkd.GenerateIND(50, 3, 10, 0.2, 29))
	cfg := ingestConfig(d, time.Millisecond)
	cfg.Fsync = wal.SyncNone
	s, ts := startIngestServer(f, cfg, d)
	f.Cleanup(func() { ts.Close(); s.Close() })
	_, full := getEpoch(f, ts.URL, nil)
	imported, ep, err := tkd.ImportEpoch(bytes.NewReader(full))
	if err != nil {
		f.Fatal(err)
	}
	follower := tkd.NewDataset(3)
	follower.ReplaceFromAt(imported, ep)

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/datasets/d/append", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			var env struct {
				Error server.ErrorBody `json:"error"`
			}
			if resp.StatusCode/100 != 4 || json.Unmarshal(raw, &env) != nil || env.Error.Code == "" {
				t.Fatalf("answered %d %q, want 200 or a typed 4xx envelope", resp.StatusCode, raw)
			}
			return
		}
		var ar server.AppendResponse
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatal(err)
		}
		want := follower.Len() + ar.Appended
		waitUntil(t, "publish", func() bool { return datasetInfo(t, ts.URL).Objects == want })

		hdr, delta := getEpoch(t, ts.URL, follower)
		x, err := tkd.ReadEpochDelta(bytes.NewReader(delta))
		if err != nil {
			t.Fatal(err)
		}
		if x.BaseEpoch != follower.Epoch() {
			t.Fatalf("stream from epoch %d, want a delta from the follower's %d", x.BaseEpoch, follower.Epoch())
		}
		if _, err := follower.ApplyEpochDelta(x); err != nil {
			t.Fatalf("delta stream: %v", err)
		}
		if got := fmt.Sprintf("%016x", follower.Fingerprint()); got != hdr.Get("X-TKD-Fingerprint") {
			t.Fatalf("follower fingerprint %s after the delta, leader %s", got, hdr.Get("X-TKD-Fingerprint"))
		}
		_, full := getEpoch(t, ts.URL, nil)
		if _, _, err := tkd.ImportEpoch(bytes.NewReader(full)); err != nil {
			t.Fatalf("full stream: %v", err)
		}
	})
}

// getEpoch fetches dataset d's epoch stream: the full one, or — with have —
// whatever the leader sends a follower holding have's epoch.
func getEpoch(t testing.TB, url string, have *tkd.Dataset) (http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/datasets/d/epoch", nil)
	if err != nil {
		t.Fatal(err)
	}
	if have != nil {
		req.Header.Set("X-TKD-Have-Epoch", strconv.FormatUint(have.Epoch(), 10))
		req.Header.Set("X-TKD-Have-Fingerprint", fmt.Sprintf("%016x", have.Fingerprint()))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch stream answered %d: %v", resp.StatusCode, err)
	}
	return resp.Header, body
}
