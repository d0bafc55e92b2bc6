package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/obs"
)

func testDataset(n int) *data.Dataset {
	return gen.Synthetic(gen.Config{N: n, Dim: 4, Cardinality: 15, MissingRate: 0.25, Dist: gen.AC, Seed: 17})
}

func localBackends(ds *data.Dataset, n int) []Backend {
	out := make([]Backend, n)
	for i := 0; i < n; i++ {
		out[i] = NewLocal(ds, i*ds.Len()/n, (i+1)*ds.Len()/n)
	}
	return out
}

func assertEqual(t *testing.T, label string, want, got core.Result) {
	t.Helper()
	if len(want.Items) != len(got.Items) {
		t.Fatalf("%s: %d items, want %d", label, len(got.Items), len(want.Items))
	}
	for i := range want.Items {
		if want.Items[i] != got.Items[i] {
			t.Fatalf("%s: rank %d: %+v != %+v", label, i+1, got.Items[i], want.Items[i])
		}
	}
}

// TestCoordinatorMatchesSerial crosschecks the coordinator over in-process
// backends against the serial algorithms at the core level.
func TestCoordinatorMatchesSerial(t *testing.T) {
	ds := testDataset(600)
	pre := core.Preprocess(ds, nil)
	for _, alg := range core.Algorithms {
		for _, n := range []int{1, 3} {
			c := NewCoordinator(core.NewPrepared(ds, nil), NewMetrics(n))
			for _, k := range []int{1, 7} {
				want, _ := core.Run(alg, ds, k, pre)
				got, _, err := c.Run(context.Background(), k, localBackends(ds, n), RunOptions{})
				if err != nil {
					t.Fatalf("%v n=%d k=%d: %v", alg, n, k, err)
				}
				assertEqual(t, fmt.Sprintf("%v n=%d k=%d", alg, n, k), want, got)
			}
		}
	}
}

// coarseBackends is localBackends under xi bins per dimension — a layout
// coarser than NewLocal's, the way to candidates that tie inexact buckets: an
// exact phase with rows to walk and budgets to stop on.
func coarseBackends(ds *data.Dataset, n, xi int) []Backend {
	out := make([]Backend, n)
	for i := 0; i < n; i++ {
		out[i] = &Local{Prepared: core.NewPrepared(ds.Slice(i*ds.Len()/n, (i+1)*ds.Len()/n), []int{xi})}
	}
	return out
}

// batchRecorder notes how many candidates each scatter call carried. One
// query's calls on one backend are sequential, so no lock is needed.
type batchRecorder struct {
	Backend
	batches []int
}

func (b *batchRecorder) Partial(ctx context.Context, req *Request) ([]int32, error) {
	b.batches = append(b.batches, len(req.Cands))
	return b.Backend.Partial(ctx, req)
}

// TestShardedWorkBounded is the gate that keeps the blind 256-wide first
// window from coming back. The coordinator's counts are deterministic, so
// they are pinned against the serial run's on the benchmark's data shape:
// the first window is exactly the k candidates that fill the heap, every
// later candidate meets a live τ (bounds phase, then budgeted exact phase),
// and the sharded plan exact-scores at most 3× what the serial loop scores at
// any one k and at most 2× over the k cycle — the slack being the window-start
// τ and a budget each shard must exceed on its own. (At the parent commit the
// same fixture reads 1.98–28× per k and 3.5–5.8× per cycle.) Under the
// dataset's layout the candidates of this shape sit in exact buckets, as over
// BIG's value-granular index, so nothing is walked and no budget stops a
// shard; under 24 bins — what a slice used to take for itself — IBIG has rows
// to walk and must prune on the budget at every k.
func TestShardedWorkBounded(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 20000, Dim: 5, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	pre := core.Preprocess(ds, nil)
	c := NewCoordinator(core.NewPrepared(ds, nil), nil)
	for _, n := range []int{2, 3} {
		for _, coarse := range []bool{false, true} {
			backends := localBackends(ds, n)
			if coarse {
				backends = coarseBackends(ds, n, 24)
			}
			rec := &batchRecorder{Backend: backends[0]}
			backends[0] = rec
			alg := core.AlgIBIG
			cycleSerial, cycleSharded := 0, 0
			for _, k := range []int{4, 16, 64} {
				label := fmt.Sprintf("%v n=%d coarse=%v k=%d", alg, n, coarse, k)
				want, serial := core.Run(alg, ds, k, pre)
				rec.batches = rec.batches[:0]
				got, st, err := c.Run(context.Background(), k, backends, RunOptions{})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertEqual(t, label, want, got)
				if rec.batches[0] != k {
					t.Errorf("%s: first scatter carried %d candidates, want k", label, rec.batches[0])
				}
				if serial.Candidates > k && st.Windows < 2 {
					t.Errorf("%s: %d windows for %d serial candidates", label, st.Windows, serial.Candidates)
				}
				if st.Scored > 3*serial.Scored {
					t.Errorf("%s: sharded scored %d, serial %d", label, st.Scored, serial.Scored)
				}
				if coarse && st.PrunedH3 == 0 {
					t.Errorf("%s: no exact-phase budget prune (stats %+v)", label, st)
				}
				cycleSerial += serial.Scored
				cycleSharded += st.Scored
			}
			if cycleSharded > 2*cycleSerial {
				t.Errorf("%v n=%d coarse=%v: sharded scored %d over the k cycle, serial %d", alg, n, coarse, cycleSharded, cycleSerial)
			}
		}
	}
}

// boundsAuditor wraps a Local and holds every bound the coordinator forwards
// to it to the exact-phase contract: the shard's own bounds-phase answer for
// the candidate, and that answer exact — |Q_s| − |F_s| as the shard's index
// counts it with no threshold — never one capped at the residual. One query's
// calls on one backend are sequential, so the answer map needs no lock.
type boundsAuditor struct {
	*Local
	t        *testing.T
	answered map[*data.Object]int32
	// forwarded and capped count the bounds checked and the bounds-phase
	// answers that were caps, so the test can tell the check was not vacuous.
	forwarded, capped int
}

func (a *boundsAuditor) Partial(ctx context.Context, req *Request) ([]int32, error) {
	fs := core.NewForeignScorer(a.Dataset(), a.Ensure(core.NeedBinned).Binned)
	exact := func(c *data.Object) int32 {
		b, _ := fs.BoundAbove(c, -1) // below every bound: never capped
		return int32(b)
	}
	for i, b := range req.Bounds {
		a.forwarded++
		c := req.Cands[i]
		if want := exact(c); b != want {
			a.t.Errorf("candidate %q: forwarded bound %d, the exact bound is %d", c.ID, b, want)
		}
		if got, ok := a.answered[c]; !ok || got != b {
			a.t.Errorf("candidate %q: forwarded bound %d, the bounds phase answered %d (seen %v)", c.ID, b, got, ok)
		}
	}
	res, err := a.Local.Partial(ctx, req)
	if err == nil && req.Mode == ModeBounds {
		for i, c := range req.Cands {
			a.answered[c] = res[i]
			if res[i] != exact(c) {
				a.capped++
			}
		}
	}
	return slices.Clone(res), err // the coordinator compacts what it is given
}

// TestForwardedBoundsAreExact runs BIG and IBIG at every k from 1 to 64 over
// three audited shards — fully, then degraded with one shard down under
// AllowPartial — and checks the answers against the serial run (the degraded
// ones against brute force over the live rows) while every bound the exact
// phase receives is audited.
func TestForwardedBoundsAreExact(t *testing.T) {
	ds := testDataset(3000)
	const n = 3
	pre := core.Preprocess(ds, nil)
	auditors := make([]*boundsAuditor, n)
	full := make([]Backend, n)
	for i := range full {
		l := coarseBackends(ds, n, 12)[i].(*Local) // of 15 values: rows to walk
		auditors[i] = &boundsAuditor{Local: l, t: t, answered: map[*data.Object]int32{}}
		full[i] = auditors[i]
	}
	down, err := NewReplicaSet(1, []Backend{downBackend{full[1]}}, chaosPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	degraded := []Backend{full[0], down, full[2]}
	scores := make([]int, ds.Len())
	for i := range scores {
		for _, s := range []int{0, 2} {
			scores[i] += core.ForeignScore(auditors[s].Dataset(), ds.Obj(i))
		}
	}

	c := NewCoordinator(core.NewPrepared(ds, nil), nil)
	alg := core.AlgIBIG
	for k := 1; k <= 64; k++ {
		want, _ := core.Run(alg, ds, k, pre)
		got, _, err := c.Run(context.Background(), k, full, RunOptions{})
		if err != nil {
			t.Fatalf("%v k=%d: %v", alg, k, err)
		}
		assertEqual(t, fmt.Sprintf("%v k=%d", alg, k), want, got)

		var out Outcome
		got, _, err = c.Run(context.Background(), k, degraded, RunOptions{AllowPartial: true, Outcome: &out})
		if err != nil || !out.Degraded {
			t.Fatalf("%v k=%d degraded: %v (outcome %+v)", alg, k, err, out)
		}
		if want := bruteTopK(ds, scores, k); !slices.Equal(got.Items, want) {
			t.Fatalf("%v k=%d: degraded answer %v, brute force over live rows %v", alg, k, got.Items, want)
		}
	}
	for i, a := range auditors {
		if a.forwarded == 0 || a.capped == 0 {
			t.Errorf("shard %d: %d bounds forwarded, %d bounds-phase answers capped — the audit is vacuous", i, a.forwarded, a.capped)
		}
	}
}

// TestRemoteBackends runs the coordinator against two real HTTP peers, each
// a Peer handler over the same dataset, and checks answers and the
// fingerprint guard.
func TestRemoteBackends(t *testing.T) {
	ds := testDataset(500)
	resolve := func(name string) (*data.Dataset, uint64, bool) {
		if name != "d" {
			return nil, 0, false
		}
		return ds, 1, true
	}
	peers := make([]*httptest.Server, 2)
	for i := range peers {
		mux := http.NewServeMux()
		mux.Handle("POST /v1/shard/query", NewPeer(resolve))
		peers[i] = httptest.NewServer(mux)
		defer peers[i].Close()
	}

	const n = 4
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		backends[i] = NewRemote(nil, peers[i%len(peers)].URL, "d", lo, hi, ds.Slice(lo, hi).Fingerprint())
	}
	pre := core.Preprocess(ds, nil)
	c := NewCoordinator(core.NewPrepared(ds, nil), NewMetrics(n))
	alg := core.AlgIBIG
	want, _ := core.Run(alg, ds, 6, pre)
	got, st, err := c.Run(context.Background(), 6, backends, RunOptions{})
	if err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
	assertEqual(t, alg.String(), want, got)
	if st.Workers != n {
		t.Fatalf("%v: stats report %d workers, want %d", alg, st.Workers, n)
	}

	// A wrong fingerprint (coordinator ahead of a lagging peer) must fail
	// the query loudly, not silently merge wrong partials.
	bad := make([]Backend, n)
	copy(bad, backends)
	bad[1] = NewRemote(nil, peers[1].URL, "d", ds.Len()/n, 2*ds.Len()/n, 0xdeadbeef)
	if _, _, err := c.Run(context.Background(), 6, bad, RunOptions{}); err == nil {
		t.Fatal("expected a fingerprint-mismatch error")
	}

	// Unknown dataset: 404 surfaces as an error.
	bad[1] = NewRemote(nil, peers[1].URL, "nope", ds.Len()/n, 2*ds.Len()/n, 0)
	if _, _, err := c.Run(context.Background(), 6, bad, RunOptions{}); err == nil {
		t.Fatal("expected an unknown-dataset error")
	}
}

// phaseLog records, per replica of one shard, the mode of each call it
// served, in call order across the shard's replicas. One query's calls on one
// shard are sequential, so the shared log needs no lock.
type phaseLog struct {
	Backend
	replica int
	log     *[][2]int // (replica, mode)
}

func (p phaseLog) Partial(ctx context.Context, req *Request) ([]int32, error) {
	*p.log = append(*p.log, [2]int{p.replica, int(req.Mode)})
	return p.Backend.Partial(ctx, req)
}

// TestRemoteReplicasOfOtherLayouts gives every shard two peer replicas that
// hold the same rows of its range but datasets of different lengths past
// it, the way a follower lags by rows appended after the range. NewLocal
// takes the bin count from the whole dataset, so the two lay the slice out
// differently; the replica set alternates, so a window's bounds phase and
// its exact phase reach different replicas. The answers must still be the
// serial run's: no bound counted on one layout may be scored on the other.
func TestRemoteReplicasOfOtherLayouts(t *testing.T) {
	// 2,000 rows fit one kernel block and take 64 bins; 10,000 take 2 · Eq. (8) = 28.
	long := gen.Synthetic(gen.Config{N: 10_000, Dim: 4, Cardinality: 200, MissingRate: 0.2, Dist: gen.IND, Seed: 17})
	ds := long.Slice(0, 2000)
	short, wide := bitmapidx.ServingBins(ds.Len(), ds.MissingRate()), bitmapidx.ServingBins(long.Len(), long.MissingRate())
	if short == wide {
		t.Fatalf("both datasets serve %d bins: the replicas share a layout", short)
	}
	datasets := []*data.Dataset{ds, long}
	peers := make([]*httptest.Server, len(datasets))
	for i := range peers {
		held := datasets[i]
		mux := http.NewServeMux()
		mux.Handle("POST /v1/shard/query", NewPeer(func(name string) (*data.Dataset, uint64, bool) {
			return held, 1, name == "d"
		}))
		peers[i] = httptest.NewServer(mux)
		defer peers[i].Close()
	}

	const n = 3
	logs := make([][][2]int, n)
	backends := make([]Backend, n)
	for i := range backends {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		replicas := make([]Backend, len(peers))
		for r, peer := range peers {
			replicas[r] = phaseLog{NewRemote(nil, peer.URL, "d", lo, hi, ds.Slice(lo, hi).Fingerprint()), r, &logs[i]}
		}
		rs, err := NewReplicaSet(i, replicas, noHedge(), nil)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}

	pre := core.Preprocess(ds, nil)
	c := NewCoordinator(core.NewPrepared(ds, nil), nil)
	alg := core.AlgIBIG
	for _, k := range []int{1, 4, 16, 64} {
		want, _ := core.Run(alg, ds, k, pre)
		got, _, err := c.Run(context.Background(), k, backends, RunOptions{})
		if err != nil {
			t.Fatalf("%v k=%d: %v", alg, k, err)
		}
		assertEqual(t, fmt.Sprintf("%v k=%d (%d and %d bins)", alg, k, short, wide), want, got)
	}
	crossed := 0
	for _, log := range logs {
		for i := 1; i < len(log); i++ {
			if log[i-1][1] == int(ModeBounds) && log[i][1] == int(ModeScores) && log[i-1][0] != log[i][0] {
				crossed++
			}
		}
	}
	if crossed == 0 {
		t.Fatal("no exact phase reached another replica than its bounds phase: the test is vacuous")
	}
}

// TestRemoteFailsClosed feeds Remote.Partial 200 answers no honest peer
// sends: each must come back as a retryable *PeerError with no results, so a
// replica set moves on instead of summing garbage.
func TestRemoteFailsClosed(t *testing.T) {
	var body string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	defer ts.Close()
	const rows = 50
	r := NewRemote(nil, ts.URL, "d", 0, rows, 1)
	cands := []*data.Object{testDataset(3).Obj(0), testDataset(3).Obj(1)}
	scores := &Request{Mode: ModeScores, Cands: cands}
	budgeted := &Request{Mode: ModeScores, Cands: cands, Budgets: []int{3, 3}}
	bounds := &Request{Mode: ModeBounds, Cands: cands}
	for _, tc := range []struct {
		name string
		req  *Request
		body string
	}{
		{"oversized body", scores, `{"results":[1,2],"pad":"` + strings.Repeat("x", 8192) + `"}`},
		{"score above the row count", scores, `{"results":[1,51]}`},
		{"negative score", scores, `{"results":[-2,1]}`},
		{"pruned without a budget", scores, `{"results":[-1,1]}`},
		{"below the sentinel with a budget", budgeted, `{"results":[-2,1]}`},
		{"negative bound", bounds, `{"results":[-1,1]}`},
		{"too few results", scores, `{"results":[1]}`},
		{"too many results", scores, `{"results":[1,2,3]}`},
		{"not JSON", scores, `<html>`},
	} {
		body = tc.body
		res, err := r.Partial(context.Background(), tc.req)
		var pe *PeerError
		if res != nil || !errors.As(err, &pe) || !retryable(err) {
			t.Errorf("%s: got (%v, %v), want no results and a retryable *PeerError", tc.name, res, err)
		}
	}
	// What an honest peer may say passes: the row count itself, a bound above
	// it (looser, never wrong), and Pruned under a budget.
	for _, tc := range []struct {
		req  *Request
		body string
	}{
		{scores, `{"results":[0,50]}`},
		{bounds, `{"results":[0,51]}`},
		{budgeted, `{"results":[-1,50]}`},
	} {
		body = tc.body
		if _, err := r.Partial(context.Background(), tc.req); err != nil {
			t.Errorf("body %s: %v", tc.body, err)
		}
	}
}

// TestLocalBoundsResidualCap checks the pushed-down residual contract: when
// the threshold-aware walk proves the bound cannot exceed the residual, the
// reported cap still upper-bounds the true partial score.
func TestLocalBoundsResidualCap(t *testing.T) {
	ds := testDataset(300)
	l := NewLocal(ds, 0, 150)
	cands := make([]*data.Object, 20)
	for i := range cands {
		cands[i] = ds.Obj(i * 7)
	}
	exact, err := l.Partial(context.Background(), &Request{Mode: ModeScores, Cands: cands})
	if err != nil {
		t.Fatal(err)
	}
	for _, residual := range []int{math.MinInt, -5, 0, 3, 50, 1000, math.MaxInt} {
		bounds, err := l.Partial(context.Background(), &Request{Mode: ModeBounds, Tau: residual, Residual: residual, Cands: cands})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cands {
			if bounds[i] < exact[i] || int(bounds[i]) > l.Rows() {
				t.Fatalf("residual %d candidate %d: bound %d outside [exact partial %d, rows %d]", residual, i, bounds[i], exact[i], l.Rows())
			}
		}
	}
}

// TestPeerLocalIsNewLocal: a peer lays a row range out as a coordinator
// serving it in-process would — under the layout of the dataset it resolved,
// not of the range — because Peer.local builds its shard through NewLocal. The
// fixture is one where the two layouts differ (200 values a dimension: the
// dataset's 9,000 rows ask 2 · Eq. (8) = 28 bins, the range's 1,000, within one
// kernel block, 64).
func TestPeerLocalIsNewLocal(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 9000, Dim: 4, Cardinality: 200, MissingRate: 0.2, Dist: gen.IND, Seed: 17})
	p := NewPeer(func(string) (*data.Dataset, uint64, bool) { return ds, 1, true })
	served, _ := p.local(ds, peerKey{name: "d", from: 1000, to: 2000}, 0)
	var peers, coords, own bytes.Buffer
	for w, l := range map[*bytes.Buffer]*Local{
		&peers:  served,
		&coords: NewLocal(ds, 1000, 2000),
		&own:    {Prepared: core.NewPrepared(ds.Slice(1000, 2000), nil)},
	} {
		if err := l.SaveServing(w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(peers.Bytes(), coords.Bytes()) {
		t.Errorf("the peer's index of rows [1000, 2000) is %d B, NewLocal's %d B, and they differ", peers.Len(), coords.Len())
	}
	if bytes.Equal(peers.Bytes(), own.Bytes()) {
		t.Error("the fixture cannot tell the dataset's layout from the slice's own")
	}
}

// TestMetricsQuantile pins the histogram quantile estimator.
func TestMetricsQuantile(t *testing.T) {
	l := ShardLatency{Count: 100, Buckets: make([]int64, len(obs.LatencyBuckets))}
	l.Buckets[2] = 90 // 90 obs <= 5ms
	l.Buckets[5] = 10 // 10 obs <= 100ms
	if got := l.Quantile(0.5); got != obs.LatencyBuckets[2] {
		t.Fatalf("p50 = %v, want %v", got, obs.LatencyBuckets[2])
	}
	if got := l.Quantile(0.99); got != obs.LatencyBuckets[5] {
		t.Fatalf("p99 = %v, want %v", got, obs.LatencyBuckets[5])
	}
	if got := (ShardLatency{}).Quantile(0.99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
	// Nearest rank: with 10 observations, one straggler IS the p99 — it
	// must not hide behind the nine fast calls.
	s := ShardLatency{Count: 10, Buckets: make([]int64, len(obs.LatencyBuckets))}
	s.Buckets[0] = 9 // nine fast calls
	s.Buckets[7] = 1 // one 1s straggler
	if got := s.Quantile(0.99); got != obs.LatencyBuckets[7] {
		t.Fatalf("straggler p99 = %v, want %v", got, obs.LatencyBuckets[7])
	}
	// Two observations: the "p99" is the slower one, never the faster.
	two := ShardLatency{Count: 2, Buckets: make([]int64, len(obs.LatencyBuckets))}
	two.Buckets[0] = 1
	two.Buckets[4] = 1
	if got := two.Quantile(0.99); got != obs.LatencyBuckets[4] {
		t.Fatalf("two-sample p99 = %v, want %v", got, obs.LatencyBuckets[4])
	}
}
