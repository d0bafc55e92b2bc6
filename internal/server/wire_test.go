package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/tkd"
)

// BenchmarkServeQuery is the query wire's row of the ledger: one POST
// /v1/datasets/d/query through Server.ServeHTTP and an httptest recorder on
// the served benchmark's query-light shape (2,000 × 4 IND rows, σ 0.2), k
// cycling 1…7 as the load generator's bodies do. An op is decode, admission,
// IBIG, trace and encode — everything a served query pays but the socket.
func BenchmarkServeQuery(b *testing.B) {
	ds := tkd.GenerateIND(2000, 4, 40, 0.2, 1)
	ds.Prepare()
	s := New(Config{MaxWorkers: 2})
	defer s.Close()
	if err := s.AddDataset("d", ds); err != nil {
		b.Fatal(err)
	}
	var bodies [7][]byte
	for i := range bodies {
		bodies[i] = []byte(`{"k":` + strconv.Itoa(i+1) + `}`)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/datasets/d/query", bytes.NewReader(bodies[i%7]))
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// referenceDecode is the /query body decoder before the fast path, and the
// fallback's: encoding/json, unknown fields rejected, under maxBodyBytes.
func referenceDecode(body []byte) (QueryRequest, error) {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// FuzzQueryBody holds the /query body decoder to encoding/json: for every
// body, decodeQuery accepts exactly when the reference decoder does, with the
// same QueryRequest, and rejects with the same 400 bytes decodeBody writes.
// A body parseQuery takes must be one the reference accepts with the same
// request.
func FuzzQueryBody(f *testing.F) {
	for _, body := range []string{
		// TestErrorContract's query bodies.
		`{`,
		`{"k":0}`,
		`{"k":3,"algorithm":"nope"}`,
		`{"dataset":"mem","k":3}`,
		`{"k":3,"workers":2}`,
		`{"k":3,"timeout_millis":9223372036855}`,
		`{"k":3}`,
		// Forms only encoding/json takes, or refuses.
		`{"K":3}`,
		`{"k":1,"k":2}`,
		`{"k":-0}`,
		`{"k":1e2}`,
		`{"k":1.0}`,
		`null`,
		`{"k":1} x`,
		`{"k":3,"timeout_millis":9223372036854775808}`,
		`{"k":3,"timeout_millis":-9223372036854775809}`,
		`{"k":3,"timeout_millis":999999999999999999}`,
		`{"k":3,"timeout_millis":1000000000000000000}`,
		`{"dataset":"d\u0065","k":2}`,
		`{"dataset":"é","k":2}`,
		"{\"dataset\":\"\xff\",\"k\":2}",
		` { "k" : 7 , "explain" : true , "allow_partial" : false } `,
		`{"k":2,"algorithm":"IBIG","timeout_millis":50,"allow_partial":true,"explain":false,"dataset":"d"}`,
		`{"k":2,"explain":null}`,
		`{"k":2,"explain":tru}`,
		`{"k":01}`,
		`{"k":-}`,
		`{}`,
		``,
		`{"k":3,"dataset":"` + strings.Repeat("x", maxBodyBytes-len(`{"k":3,"dataset":""}`)+1) + `"}`,
		`{"k":3}` + strings.Repeat(" ", 4096),
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceDecode(body)
		// decodeQuery parses no body larger than a pooled buffer.
		var fast QueryRequest
		if len(body) <= maxPooledWire && parseQuery(body, &fast) && (wantErr != nil || fast != want) {
			t.Fatalf("parseQuery took %q as %+v; encoding/json gives %+v, %v", body, fast, want, wantErr)
		}

		var got QueryRequest
		gotW := httptest.NewRecorder()
		ok := decodeQuery(gotW, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &got)
		refW := httptest.NewRecorder()
		var ref QueryRequest
		refOK := decodeBody(refW, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &ref)
		if ok != refOK || ok != (wantErr == nil) {
			t.Fatalf("%q: decodeQuery %v, decodeBody %v, encoding/json error %v", body, ok, refOK, wantErr)
		}
		if ok && (got != want || ref != want) {
			t.Fatalf("%q: decodeQuery %+v, decodeBody %+v, want %+v", body, got, ref, want)
		}
		if gotW.Code != refW.Code || !bytes.Equal(gotW.Body.Bytes(), refW.Body.Bytes()) {
			t.Fatalf("%q: decodeQuery answered %d %q, decodeBody %d %q", body, gotW.Code, gotW.Body, refW.Code, refW.Body)
		}
	})
}

// TestQueryResponseEncodingMatchesJSON holds the /query answer writer to
// writeJSON over random answers: the same status, headers and bytes, whether
// appendQueryResponse takes the answer or hands it to writeJSON.
func TestQueryResponseEncodingMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(52, 7))
	ids := []string{
		"o1", "row-17", "", "a b", `q"uote`, `back\slash`, "tab\there", "nl\n", "\x00\x1f",
		"<a>&b", "caf\u00e9", "line\u2028sep", "para\u2029", "bad\xffutf8", "\xc3", "~\x7f",
	}
	floats := []float64{0, 1e-7, 9.99e-7, 1e-6, 0.069, 0.5, 1, 12.345, 1e20, 1e21, 3e25,
		math.Copysign(0, -1), math.Inf(1), math.NaN()}
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	fast, slow := 0, 0
	for i := 0; i < 3000; i++ {
		resp := QueryResponse{
			Dataset:   pick([]string{"d", "query-light", "dé", `d"`, "d<>"}),
			K:         rng.IntN(70),
			Algorithm: pick([]string{servedAlgorithm, "", "x\\y"}),
			Workers:   rng.IntN(4),
			Stats: QueryStats{
				Candidates: rng.IntN(5000), Scored: rng.IntN(5000), PrunedH1: rng.IntN(100),
				PrunedH2: rng.IntN(100), PrunedH3: rng.IntN(100), PrunedSkyband: rng.IntN(3),
				Comparisons: rng.Int64() >> rng.IntN(64), Workers: rng.IntN(3) - 1, Windows: rng.IntN(9),
			},
			Coalesced: rng.IntN(2) == 0,
			BatchSize: rng.IntN(5),
			Epoch:     rng.Uint64() >> rng.IntN(64),
		}
		switch rng.IntN(4) {
		case 0:
			resp.LatencyMS = floats[rng.IntN(len(floats))]
		case 1:
			resp.LatencyMS = float64(rng.IntN(1e6)) / 1000
		default:
			resp.LatencyMS = rng.Float64() * math.Pow(10, float64(rng.IntN(30)-10))
		}
		if rng.IntN(4) == 0 { // a degraded answer
			resp.Degraded = true
			resp.TotalRows = rng.IntN(1e6)
			resp.CoveredRows = rng.IntN(resp.TotalRows + 1)
		}
		if rng.IntN(8) == 0 { // an explain answer
			tr := obs.New("query")
			tr.Root().StartChild("queue").End()
			tr.Root().End()
			resp.Trace = tr.JSON()
		}
		items := make([]tkd.Item, rng.IntN(12))
		plain := rng.IntN(3) > 0
		for j := range items {
			items[j] = tkd.Item{Index: rng.IntN(1e5), ID: "o" + strconv.Itoa(rng.IntN(1e5)), Score: rng.IntN(1e5)}
			if !plain {
				items[j].ID = pick(ids)
			}
		}
		if plain && rng.IntN(4) > 0 { // the served shape: every string plain
			resp.Dataset, resp.Algorithm = "d", servedAlgorithm
		}

		want := resp
		want.Items = make([]QueryItem, len(items))
		for j, it := range items {
			want.Items[j] = QueryItem{Rank: j + 1, Index: it.Index, ID: it.ID, Score: it.Score}
		}
		wantW := httptest.NewRecorder()
		writeJSON(wantW, http.StatusOK, want)
		gotW := httptest.NewRecorder()
		writeQueryResponse(gotW, &resp, items)
		if gotW.Code != wantW.Code || !reflect.DeepEqual(gotW.Header(), wantW.Header()) ||
			!bytes.Equal(gotW.Body.Bytes(), wantW.Body.Bytes()) {
			t.Fatalf("answer %d:\n got %d %v %q\nwant %d %v %q", i,
				gotW.Code, gotW.Header(), gotW.Body, wantW.Code, wantW.Header(), wantW.Body)
		}
		if _, ok := appendQueryResponse(nil, &resp, items); ok {
			fast++
		} else {
			slow++
		}
	}
	if fast < 500 || slow < 500 {
		t.Fatalf("%d answers appended, %d handed to writeJSON: both paths want exercising", fast, slow)
	}
}
