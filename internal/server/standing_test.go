package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/tkd"
)

// standingFixture is the partitioned dataset the standing tests pin: group A
// observes dims {0,1} with mutually incomparable values (all scores 0),
// group B observes dims {2,3} forming a chain b0 < b1 < … < b7. Smaller
// values dominate, so b0 dominates the rest of the chain and the standing
// top-3 is b0(7), b1(6), b2(5) with τ = 5.
func standingFixture(t *testing.T) *tkd.Dataset {
	t.Helper()
	nan := math.NaN()
	ds := tkd.NewDataset(4)
	for i := 0; i < 8; i++ {
		if err := ds.Append(fmt.Sprintf("a%d", i), float64(i), float64(8-i), nan, nan); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := ds.Append(fmt.Sprintf("b%d", i), nan, nan, float64(1+i), float64(1+i)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func subscribePoll(t *testing.T, url string, req server.SubscribeRequest) server.StandingEvent {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, url+"/v1/datasets/d/subscribe", req)
	if code != http.StatusOK {
		t.Fatalf("subscribe answered %d: %s", code, body)
	}
	var ev server.StandingEvent
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// subscribeSSE opens a standing subscription at k as an event stream; the
// caller closes the body, which ends the subscription.
func subscribeSSE(t *testing.T, url string, k int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/datasets/d/subscribe", strings.NewReader(fmt.Sprintf(`{"k":%d}`, k)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe answered %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("content type %q", ct)
	}
	return resp
}

// TestStandingSubscription is the long-poll end-to-end: the first poll
// materialises the answer, an irrelevant append is re-evaluated without
// waking anyone, and an append that takes the lead pushes a new version to
// the parked poller.
func TestStandingSubscription(t *testing.T) {
	d := newIngestDirs(t, standingFixture(t))
	cfg := ingestConfig(d, 20*time.Millisecond)
	s, ts := startIngestServer(t, cfg, d)
	defer func() { ts.Close(); s.Close() }()

	ev := subscribePoll(t, ts.URL, server.SubscribeRequest{K: 3})
	if ev.Version == 0 || len(ev.Items) != 3 {
		t.Fatalf("initial poll: version %d, %d items", ev.Version, len(ev.Items))
	}
	for i, want := range []struct {
		id    string
		score int
	}{{"b0", 7}, {"b1", 6}, {"b2", 5}} {
		if ev.Items[i].ID != want.id || ev.Items[i].Score != want.score {
			t.Fatalf("initial answer[%d] = %s/%d, want %s/%d",
				i, ev.Items[i].ID, ev.Items[i].Score, want.id, want.score)
		}
	}

	// Park a poller waiting for the version after the snapshot, then append
	// a row that cannot change the answer: a new maximum in dim 3 (it
	// dominates nobody) that is also a new minimum in dim 2 (no existing
	// object gains a dominator, so no score moves). The publish re-evaluates
	// once, finds the same answer, and the poll times out on the same
	// version.
	parked := make(chan server.StandingEvent, 1)
	go func() {
		parked <- subscribePoll(t, ts.URL, server.SubscribeRequest{
			K: 3, AfterVersion: ev.Version, WaitMillis: 1500,
		})
	}()
	// The first poll released the standing query on return, so the parked
	// poller seeds it again: two evaluations before the append.
	waitFor(t, "poller parked", func() bool {
		m := getBody(t, ts.URL+"/metrics")
		return metricValue(t, m, "tkd_standing_subscribers") >= 1 && metricValue(t, m, "tkd_standing_evals_total") >= 2
	})
	evalsBefore := metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_evals_total")
	appendRows(t, ts.URL, []server.AppendRow{{ID: "p", Values: []*float64{nil, nil, fptr(0.5), fptr(42)}}})
	waitFor(t, "irrelevant append published", func() bool {
		return datasetInfo(t, ts.URL).Objects == 17
	})
	got := <-parked
	if got.Version != ev.Version {
		t.Fatalf("irrelevant append advanced the answer to version %d (items %v)", got.Version, got.Items)
	}
	if evals := metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_evals_total"); evals != evalsBefore+1 {
		t.Fatalf("irrelevant append ran %v evaluations, want exactly 1", evals-evalsBefore)
	}

	// Now a relevant append: q undercuts the whole B chain in both dims,
	// dominating all eight rows, and must surface as the new rank-1.
	go func() {
		parked <- subscribePoll(t, ts.URL, server.SubscribeRequest{
			K: 3, AfterVersion: ev.Version, WaitMillis: 10000,
		})
	}()
	waitFor(t, "poller parked again", func() bool {
		return metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_subscribers") >= 1
	})
	appendRows(t, ts.URL, []server.AppendRow{{ID: "q", Values: []*float64{nil, nil, fptr(0.25), fptr(0.25)}}})
	got = <-parked
	if got.Version <= ev.Version {
		t.Fatalf("relevant append did not advance the version: %d", got.Version)
	}
	// q dominates the eight chain rows and the p appended above: score 9.
	if len(got.Items) != 3 || got.Items[0].ID != "q" || got.Items[0].Score != 9 {
		t.Fatalf("new answer = %+v, want q/9 at rank 1", got.Items)
	}
}

// TestStandingMatchesQueryOnRankKTies: after every publish the standing
// answer is the one POST /query gives on the same epoch, item for item and
// rank for rank — including when the publish leaves every score alone and
// only reorders a rank-k tie. The fixture's base rows make o0 (1,1) and o4
// (·,1) tie at score 7 once o8 and o9 land; o10 sets a new minimum on
// dimension 0 and misses dimension 1, so nobody dominates it and no score
// moves, yet o4 now leads the MaxScore queue and takes the single slot.
func TestStandingMatchesQueryOnRankKTies(t *testing.T) {
	nan := math.NaN()
	ds := tkd.NewDataset(2)
	for i, row := range [][2]float64{{1, 1}, {4, 2}, {1, 2}, {nan, 4}, {nan, 1}, {nan, 2}, {nan, 1}, {1, 4}} {
		if err := ds.Append(fmt.Sprintf("o%d", i), row[0], row[1]); err != nil {
			t.Fatal(err)
		}
	}
	d := newIngestDirs(t, ds)
	s, ts := startIngestServer(t, ingestConfig(d, 5*time.Millisecond), d)
	defer func() { ts.Close(); s.Close() }()
	const k = 1

	// An open SSE stream keeps the standing query alive across the publishes;
	// the checks below read it through long-polls at after_version 0.
	resp := subscribeSSE(t, ts.URL, k)
	defer resp.Body.Close()

	appended := []server.AppendRow{
		{ID: "o8", Values: []*float64{fptr(2), fptr(4)}},
		{ID: "o9", Values: []*float64{nil, fptr(4)}},
		{ID: "o10", Values: []*float64{fptr(0), nil}},
	}
	for i, row := range appended {
		appendRows(t, ts.URL, []server.AppendRow{row})
		waitFor(t, row.ID+" published", func() bool { return datasetInfo(t, ts.URL).Objects == 9+i })
		// The standing evaluation runs just after the publish turns visible,
		// so the two answers may differ for a moment; they must then agree.
		var standing, query []server.QueryItem
		deadline := time.Now().Add(5 * time.Second)
		for {
			standing = subscribePoll(t, ts.URL, server.SubscribeRequest{K: k}).Items
			qr, code := postQuery(t, ts.URL, server.QueryRequest{Dataset: "d", K: k})
			if code != http.StatusOK {
				t.Fatalf("after %s: query answered %d", row.ID, code)
			}
			query = qr.Items
			if slices.Equal(standing, query) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("after %s: standing answer %+v, query answer %+v", row.ID, standing, query)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(query) != k {
			t.Fatalf("after %s: %d items, want %d", row.ID, len(query), k)
		}
	}
}

// TestStandingSSE streams the subscription over server-sent events: the
// connect snapshot arrives immediately, and a top-k-changing append pushes
// a second event on the open connection.
func TestStandingSSE(t *testing.T) {
	d := newIngestDirs(t, standingFixture(t))
	cfg := ingestConfig(d, 20*time.Millisecond)
	s, ts := startIngestServer(t, cfg, d)
	defer func() { ts.Close(); s.Close() }()

	resp := subscribeSSE(t, ts.URL, 3)
	defer resp.Body.Close()

	// readEvent scans the stream to the next `data:` line.
	sc := bufio.NewScanner(resp.Body)
	readEvent := func() server.StandingEvent {
		t.Helper()
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev server.StandingEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatal(err)
				}
				return ev
			}
		}
		t.Fatalf("stream ended: %v", sc.Err())
		return server.StandingEvent{}
	}

	first := readEvent()
	if len(first.Items) != 3 || first.Items[0].ID != "b0" {
		t.Fatalf("connect snapshot = %+v", first.Items)
	}

	appendRows(t, ts.URL, []server.AppendRow{{ID: "q", Values: []*float64{nil, nil, fptr(0.25), fptr(0.25)}}})
	second := readEvent()
	if second.Version <= first.Version {
		t.Fatalf("pushed event version %d not after %d", second.Version, first.Version)
	}
	if len(second.Items) != 3 || second.Items[0].ID != "q" {
		t.Fatalf("pushed answer = %+v, want q at rank 1", second.Items)
	}
}

// TestStandingSubscribersShareOneQuery: two subscribers on the same
// (dataset, k) ride one standing query — a publish evaluates the
// engine once, not per subscriber.
func TestStandingSubscribersShareOneQuery(t *testing.T) {
	d := newIngestDirs(t, standingFixture(t))
	cfg := ingestConfig(d, 20*time.Millisecond)
	s, ts := startIngestServer(t, cfg, d)
	defer func() { ts.Close(); s.Close() }()

	seed := subscribePoll(t, ts.URL, server.SubscribeRequest{K: 3})

	results := make(chan server.StandingEvent, 2)
	for i := 0; i < 2; i++ {
		go func() {
			results <- subscribePoll(t, ts.URL, server.SubscribeRequest{
				K: 3, AfterVersion: seed.Version, WaitMillis: 10000,
			})
		}()
	}
	waitFor(t, "both pollers parked", func() bool {
		return metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_subscribers") >= 2
	})
	// Baseline after both are parked: the seed poll released its standing
	// query on return, so the first parked poller re-materialised it.
	evalsBefore := metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_evals_total")
	appendRows(t, ts.URL, []server.AppendRow{{ID: "q", Values: []*float64{nil, nil, fptr(0.25), fptr(0.25)}}})
	for i := 0; i < 2; i++ {
		ev := <-results
		if ev.Version <= seed.Version || ev.Items[0].ID != "q" {
			t.Fatalf("subscriber %d: version %d items %+v", i, ev.Version, ev.Items)
		}
	}
	if evals := metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_evals_total"); evals != evalsBefore+1 {
		t.Fatalf("publish ran %v evaluations for 2 subscribers, want exactly 1", evals-evalsBefore)
	}
}

// TestStandingEvictCloses: evicting the dataset ends the subscription with
// a final closed=true event instead of hanging the poller.
func TestStandingEvictCloses(t *testing.T) {
	d := newIngestDirs(t, standingFixture(t))
	cfg := ingestConfig(d, time.Hour)
	s, ts := startIngestServer(t, cfg, d)
	defer func() { ts.Close(); s.Close() }()

	seed := subscribePoll(t, ts.URL, server.SubscribeRequest{K: 3})
	parked := make(chan server.StandingEvent, 1)
	go func() {
		parked <- subscribePoll(t, ts.URL, server.SubscribeRequest{
			K: 3, AfterVersion: seed.Version, WaitMillis: 10000,
		})
	}()
	waitFor(t, "poller parked", func() bool {
		return metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_subscribers") >= 1
	})
	if code, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/datasets/d", nil); code != http.StatusOK {
		t.Fatalf("evict answered %d: %s", code, body)
	}
	ev := <-parked
	if !ev.Closed {
		t.Fatalf("poller woke without closed: %+v", ev)
	}
}

const slowRows = 20000

// slowStanding serves GenerateIND(20000, 4, 100, 0.2, 1) with ingest
// publishing every 10 ms; one IBIG run over it at k = 20,000 takes a few
// hundred milliseconds on two cores.
func slowStanding(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	d := newIngestDirs(t, tkd.GenerateIND(slowRows, 4, 100, 0.2, 1))
	return startIngestServer(t, ingestConfig(d, 10*time.Millisecond), d)
}

// dominatingRow is a row every fixture row has a common observed dimension
// with and loses to on it: appended, it ranks first in every answer.
func dominatingRow(id string) server.AppendRow {
	return server.AppendRow{ID: id, Values: []*float64{fptr(-1), fptr(-1), fptr(-1), fptr(-1)}}
}

// TestStandingEvaluationHoldsNoPublish: with an SSE subscriber at k = 20,000,
// a publish hands the standing evaluation off and returns, so an append made
// while the evaluation runs turns visible at once; the appends made during
// one evaluation fold into at most one more; and Shutdown cuts the
// evaluation in flight short instead of waiting for it.
func TestStandingEvaluationHoldsNoPublish(t *testing.T) {
	s, ts := slowStanding(t)
	defer ts.Close()
	defer s.Close()

	// The subscription answers once its key's first evaluation has run.
	start := time.Now()
	resp := subscribeSSE(t, ts.URL, slowRows)
	defer resp.Body.Close()
	eval := time.Since(start)
	t.Logf("one evaluation: %v", eval)
	evals := func() float64 { return metricValue(t, getBody(t, ts.URL+"/metrics"), "tkd_standing_evals_total") }
	before := evals()

	// The first append's publish starts an evaluation; the next two land
	// while it runs.
	began := time.Now()
	for i := 0; i < 3; i++ {
		start := time.Now()
		appendRows(t, ts.URL, []server.AppendRow{dominatingRow(fmt.Sprintf("z%d", i))})
		waitFor(t, "the append published", func() bool { return datasetInfo(t, ts.URL).Objects == slowRows+i+1 })
		if visible := time.Since(start); i > 0 && visible > eval/2 {
			t.Fatalf("append %d turned visible %v after its ack, against a %v evaluation", i, visible, eval)
		}
	}
	if spent := time.Since(began); spent > eval {
		t.Fatalf("three appends took %v, longer than one %v evaluation", spent, eval)
	}
	// Two evaluations can outlast waitFor's budget under the race detector.
	epoch := datasetInfo(t, ts.URL).Epoch
	for deadline := time.Now().Add(10 * eval); subscribePoll(t, ts.URL, server.SubscribeRequest{K: slowRows}).Epoch < epoch; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no standing answer at epoch %d after %v", epoch, 10*eval)
		}
	}
	if n := evals() - before; n > 2 {
		t.Fatalf("three appends during one evaluation ran %v evaluations, want at most 2", n)
	}

	// One more publish, and Shutdown while its evaluation runs.
	before = evals()
	appendRows(t, ts.URL, []server.AppendRow{dominatingRow("z3")})
	waitFor(t, "an evaluation in flight", func() bool { return evals() > before })
	start = time.Now()
	s.Shutdown()
	if took := time.Since(start); took > eval/2 {
		t.Fatalf("Shutdown took %v with an evaluation in flight, against a %v evaluation", took, eval)
	}
}

// TestQueryStampsTheEpochItRanOn: a query over the 20,000-row fixture at
// k = 20,000 runs for hundreds of milliseconds; one whose run sees an append
// published answers with the epoch it computed on, not the one current when
// it finished.
func TestQueryStampsTheEpochItRanOn(t *testing.T) {
	s, ts := slowStanding(t)
	defer func() { ts.Close(); s.Close() }()
	epoch := datasetInfo(t, ts.URL).Epoch
	done := make(chan server.QueryResponse, 1)
	go func() {
		qr, _ := postQuery(t, ts.URL, server.QueryRequest{Dataset: "d", K: slowRows})
		done <- qr
	}()
	time.Sleep(20 * time.Millisecond) // the query starts running
	appendRows(t, ts.URL, []server.AppendRow{dominatingRow("z")})
	waitFor(t, "the append published", func() bool { return datasetInfo(t, ts.URL).Epoch > epoch })
	select {
	case <-done:
		t.Fatal("the query answered before the append was published; the test raced")
	default:
	}
	qr := <-done
	if len(qr.Items) == 0 || qr.Items[0].ID == "z" {
		t.Fatalf("the query ran on the append's epoch (items %d); the test raced", len(qr.Items))
	}
	if qr.Epoch != epoch {
		t.Fatalf("a query computed on epoch %d is stamped %d", epoch, qr.Epoch)
	}
}

// TestStandingEvaluationHonoursQueryTimeout: -query-timeout bounds a standing
// evaluation like any query. A first subscriber whose evaluation cannot
// finish within it gets no answer — version 0 once its wait runs out — and
// the evaluation counts as a failed query.
func TestStandingEvaluationHonoursQueryTimeout(t *testing.T) {
	s := server.New(server.Config{QueryTimeout: time.Millisecond})
	defer s.Close()
	if err := s.AddDataset("d", tkd.GenerateIND(slowRows, 4, 100, 0.2, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	ev := subscribePoll(t, ts.URL, server.SubscribeRequest{K: slowRows, WaitMillis: 50})
	if ev.Version != 0 || len(ev.Items) != 0 {
		t.Fatalf("a 1 ms timeout let the evaluation answer: version %d, %d items", ev.Version, len(ev.Items))
	}
	waitFor(t, "the timed-out evaluation counted as a failed query", func() bool {
		return metricValue(t, getBody(t, ts.URL+"/metrics"), `tkd_query_errors_total{dataset="d"}`) == 1
	})
}
