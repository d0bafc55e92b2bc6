package tkd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/tkd"
)

// paperSample rebuilds the Fig. 3 running example through the public API.
func paperSample(t *testing.T) *tkd.Dataset {
	t.Helper()
	M := tkd.Missing
	ds := tkd.NewDataset(4)
	rows := []struct {
		id string
		v  []float64
	}{
		{"A1", []float64{M, 3, 1, 3}}, {"A2", []float64{M, 1, 2, 1}},
		{"A3", []float64{M, 1, 3, 4}}, {"A4", []float64{M, 7, 4, 5}},
		{"A5", []float64{M, 4, 8, 3}}, {"B1", []float64{M, M, 1, 2}},
		{"B2", []float64{M, M, 3, 1}}, {"B3", []float64{M, M, 4, 9}},
		{"B4", []float64{M, M, 3, 7}}, {"B5", []float64{M, M, 7, 4}},
		{"C1", []float64{2, M, M, 3}}, {"C2", []float64{2, M, M, 1}},
		{"C3", []float64{3, M, M, 2}}, {"C4", []float64{3, M, M, 3}},
		{"C5", []float64{3, M, M, 4}}, {"D1", []float64{3, 5, M, 2}},
		{"D2", []float64{2, 1, M, 4}}, {"D3", []float64{2, 4, M, 1}},
		{"D4", []float64{4, 4, M, 5}}, {"D5", []float64{5, 5, M, 4}},
	}
	for _, r := range rows {
		if err := ds.Append(r.id, r.v...); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestQuickstartFlow(t *testing.T) {
	ds := paperSample(t)
	if ds.Len() != 20 || ds.Dim() != 4 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Dim())
	}
	res, err := ds.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.IDs()
	sort.Strings(ids)
	if ids[0] != "A2" || ids[1] != "C2" {
		t.Fatalf("T2D = %v, want [A2 C2]", res.IDs())
	}
	if res.Items[0].Score != 16 {
		t.Fatalf("score = %d, want 16", res.Items[0].Score)
	}
}

func TestAllPublicAlgorithmsAgree(t *testing.T) {
	ds := paperSample(t)
	ds.Prepare()
	for _, alg := range []tkd.Algorithm{tkd.Naive, tkd.ESB, tkd.UBB, tkd.BIG, tkd.IBIG} {
		res, err := ds.TopK(2, tkd.WithAlgorithm(alg))
		if err != nil {
			t.Fatal(err)
		}
		ids := res.IDs()
		sort.Strings(ids)
		if ids[0] != "A2" || ids[1] != "C2" {
			t.Fatalf("%v answered %v", alg, res.IDs())
		}
	}
}

func TestWithStats(t *testing.T) {
	ds := paperSample(t)
	var st tkd.Stats
	if _, err := ds.TopK(2, tkd.WithAlgorithm(tkd.UBB), tkd.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Scored != 2 || st.PrunedH1 != 18 {
		t.Fatalf("stats = %+v, want 2 scored / 18 pruned (Example 2)", st)
	}
	if st.Epoch == 0 || st.Epoch != ds.Epoch() {
		t.Fatalf("stats epoch %d, dataset epoch %d", st.Epoch, ds.Epoch())
	}
	// An append publishes the next epoch; the next query reports it.
	if err := ds.Append("z", 9, 9, 9, 9); err != nil {
		t.Fatal(err)
	}
	before := st.Epoch
	if _, err := ds.TopK(2, tkd.WithStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Epoch <= before || st.Epoch != ds.Epoch() {
		t.Fatalf("after an append: stats epoch %d (was %d), dataset epoch %d", st.Epoch, before, ds.Epoch())
	}
}

// TestQueryOptionsNeverPublish: a query option configures the query and never
// the dataset. After one append-publish from epoch e1, unsharded and behind
// three in-process shards, every algorithm at every worker count, with stats,
// a trace, a context and partial coverage asked for, leaves the epoch and the
// index build count where the warm-up left them, and the lineage intact: the
// delta from e1 still exports.
func TestQueryOptionsNeverPublish(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, shards := range []int{0, 3} {
		ds := tkd.GenerateIND(600, 3, 20, 0.2, 11)
		if shards > 0 {
			if _, err := tkd.Shard(ds, "d", tkd.WithShards(shards)); err != nil {
				t.Fatal(err)
			}
		}
		ds.PrepareFor(tkd.IBIG)
		e1, fp1 := ds.Epoch(), ds.Fingerprint()
		if _, err := ds.AppendRows(deltaBatch("q", 10, 3, 20, 5)); err != nil {
			t.Fatal(err)
		}
		query := func() {
			for _, alg := range []tkd.Algorithm{tkd.Naive, tkd.ESB, tkd.UBB, tkd.BIG, tkd.IBIG} {
				for _, workers := range []int{0, 1, 2} {
					var st tkd.Stats
					var deg tkd.Degradation
					tr := obs.New("query")
					if _, err := ds.TopK(5, tkd.WithAlgorithm(alg), tkd.WithWorkers(workers), tkd.WithStats(&st),
						tkd.WithTrace(tr.Root()), tkd.WithContext(ctx), tkd.WithAllowPartial(&deg)); err != nil {
						t.Fatalf("shards=%d %v workers=%d: %v", shards, alg, workers, err)
					}
					tr.Root().End()
					if st.Epoch != ds.Epoch() || deg.Degraded {
						t.Fatalf("shards=%d %v workers=%d: ran on epoch %d of %d, degraded=%v", shards, alg, workers, st.Epoch, ds.Epoch(), deg.Degraded)
					}
				}
			}
		}
		query() // warm-up: BIG's bitmap and anything else built on first use
		epoch, builds := ds.Epoch(), ds.IndexBuilds()
		query()
		if ds.Epoch() != epoch || ds.IndexBuilds() != builds {
			t.Fatalf("shards=%d: queries moved the epoch %d → %d and the index builds %d → %d", shards, epoch, ds.Epoch(), builds, ds.IndexBuilds())
		}
		if _, ok := ds.ExportEpochDelta(e1, fp1); !ok {
			t.Fatalf("shards=%d: no delta from epoch %d after the queries: the lineage was cut", shards, e1)
		}
	}
}

func TestErrors(t *testing.T) {
	ds := tkd.NewDataset(3)
	if _, err := ds.TopK(1); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if err := ds.Append("x", 1, 2); err == nil {
		t.Fatal("short row accepted")
	}
	if err := ds.Append("x", tkd.Missing, tkd.Missing, tkd.Missing); err == nil {
		t.Fatal("all-missing object accepted")
	}
	if err := ds.Append("ok", 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.TopK(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestAppendInvalidatesCache(t *testing.T) {
	ds := tkd.NewDataset(2)
	if err := ds.Append("a", 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := ds.Append("b", 2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.TopK(1); err != nil {
		t.Fatal(err)
	}
	// A new strictly-better object must win after cache invalidation.
	if err := ds.Append("c", 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := ds.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].ID != "c" {
		t.Fatalf("stale index: winner %s, want c", res.Items[0].ID)
	}
}

func TestDominatesAndScore(t *testing.T) {
	ds := paperSample(t)
	// f-style check: C2 dominates C1 (2≤2, 1<3).
	if !ds.Dominates(11, 10) {
		t.Fatal("C2 must dominate C1")
	}
	if ds.Score(11) != 16 {
		t.Fatalf("Score(C2) = %d", ds.Score(11))
	}
}

func TestValueAccessor(t *testing.T) {
	ds := paperSample(t)
	if v, ok := ds.Value(10, 0); !ok || v != 2 {
		t.Fatalf("Value(C1, 0) = %v,%v", v, ok)
	}
	if _, ok := ds.Value(0, 0); ok {
		t.Fatal("A1 dim 1 should be missing")
	}
	if ds.ID(10) != "C1" {
		t.Fatalf("ID(10) = %s", ds.ID(10))
	}
}

func TestCSVRoundTripPublic(t *testing.T) {
	ds := paperSample(t)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := tkd.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.IDs()
	sort.Strings(ids)
	if ids[0] != "A2" || ids[1] != "C2" {
		t.Fatalf("after round trip: %v", res.IDs())
	}
	if _, err := tkd.ReadCSV(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage CSV accepted")
	}
}

func TestNegate(t *testing.T) {
	// Ratings where higher is better: after Negate, the 5-star object wins.
	ds := tkd.NewDataset(2)
	_ = ds.Append("bad", 1, 1)
	_ = ds.Append("good", 5, 5)
	ds.Negate()
	res, err := ds.TopK(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[0].ID != "good" {
		t.Fatalf("winner %s", res.Items[0].ID)
	}
}

func TestGenerators(t *testing.T) {
	ind := tkd.GenerateIND(200, 4, 10, 0.2, 1)
	if ind.Len() != 200 || ind.Dim() != 4 {
		t.Fatal("IND shape")
	}
	ac := tkd.GenerateAC(100, 3, 10, 0.1, 2)
	if _, err := ac.TopK(4); err != nil {
		t.Fatal(err)
	}
	z := tkd.SimulateZillow(3, 500)
	if z.Len() != 500 {
		t.Fatal("Zillow size")
	}
}

func TestImputeAndJaccard(t *testing.T) {
	ds := tkd.GenerateIND(150, 4, 8, 0.3, 4)
	complete := ds.Impute(4, 10, 1)
	if complete.MissingRate() != 0 {
		t.Fatal("imputation left missing values")
	}
	a, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := complete.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	dj := tkd.JaccardDistance(a, b)
	if dj < 0 || dj > 1 {
		t.Fatalf("DJ = %v", dj)
	}
}

func TestTopKMFD(t *testing.T) {
	ds := paperSample(t)
	items, err := ds.TopKMFD(3, []float64{1, 1, 1, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("MFD items = %d", len(items))
	}
	if _, err := ds.TopKMFD(3, []float64{1}, 0.5); err == nil {
		t.Fatal("bad weights accepted")
	}
}

func TestOptimalBinsPublic(t *testing.T) {
	if tkd.OptimalBins(100_000, 0.1) != 29 {
		t.Fatal("Eq. 8 mismatch")
	}
}

func TestSkylineAndKSkyband(t *testing.T) {
	ds := paperSample(t)
	sky := ds.Skyline()
	if len(sky) == 0 {
		t.Fatal("empty skyline")
	}
	// Every skyline member is undominated; every non-member is dominated.
	inSky := map[int]bool{}
	for _, i := range sky {
		inSky[i] = true
	}
	for i := 0; i < ds.Len(); i++ {
		dominated := false
		for j := 0; j < ds.Len(); j++ {
			if i != j && ds.Dominates(j, i) {
				dominated = true
				break
			}
		}
		if dominated == inSky[i] {
			t.Fatalf("object %s: dominated=%v inSkyline=%v", ds.ID(i), dominated, inSky[i])
		}
	}
	// k-skyband grows with k and reaches the full dataset.
	if len(ds.KSkyband(2)) < len(sky) {
		t.Fatal("2-skyband smaller than skyline")
	}
	if got := len(ds.KSkyband(ds.Len())); got != ds.Len() {
		t.Fatalf("N-skyband has %d members, want all %d", got, ds.Len())
	}
}

func TestSaveLoadIndexPublic(t *testing.T) {
	ds := paperSample(t)
	var buf bytes.Buffer
	if err := ds.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	// A fresh dataset object (same content) loads the index and answers.
	fresh := paperSample(t)
	if err := fresh.LoadIndex(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	res, err := fresh.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := res.IDs()
	sort.Strings(ids)
	if ids[0] != "A2" || ids[1] != "C2" {
		t.Fatalf("answer after LoadIndex: %v", res.IDs())
	}
	if err := fresh.LoadIndex(strings.NewReader("junk")); err == nil {
		t.Fatal("junk index accepted")
	}
}

// TestDeadlineCancelsEveryAlgorithm holds every plan to its deadline. On
// 20 k × 4 rows at k = N — every row an answer, so no heuristic prunes — each
// of the five algorithms, unsharded and over three shards, returns within a
// second of a 50 ms deadline (five under the race detector, which slows a
// 256-candidate window of Naive to ≈ 0.4 s). Naive, ESB and UBB run for
// seconds at this shape, so they must report the deadline; BIG and IBIG may
// finish first on a fast host, and then must answer in full.
func TestDeadlineCancelsEveryAlgorithm(t *testing.T) {
	const n, deadline = 20000, 50 * time.Millisecond
	slack := time.Second
	if raceEnabled {
		slack = 5 * time.Second
	}
	for _, shards := range []int{0, 3} {
		ds := tkd.GenerateIND(n, 4, 100, 0.2, 1)
		if shards > 0 {
			if _, err := tkd.Shard(ds, "d", tkd.WithShards(shards)); err != nil {
				t.Fatal(err)
			}
		}
		ds.PrepareFor(tkd.Naive, tkd.ESB, tkd.UBB, tkd.BIG, tkd.IBIG)
		for _, alg := range []tkd.Algorithm{tkd.Naive, tkd.ESB, tkd.UBB, tkd.BIG, tkd.IBIG} {
			label := fmt.Sprintf("%v shards=%d", alg, shards)
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			res, err := ds.TopK(n, tkd.WithAlgorithm(alg), tkd.WithContext(ctx))
			elapsed := time.Since(start)
			cancel()
			if elapsed > deadline+slack {
				t.Errorf("%s: returned after %v, more than %v past the %v deadline", label, elapsed, slack, deadline)
			}
			switch {
			case errors.Is(err, context.DeadlineExceeded):
			case err != nil:
				t.Errorf("%s: %v, want the deadline's error", label, err)
			case alg != tkd.BIG && alg != tkd.IBIG:
				t.Errorf("%s: answered in %v, want the deadline's error", label, elapsed)
			case len(res.Items) != n:
				t.Errorf("%s: %d items, want %d", label, len(res.Items), n)
			}
		}
	}
}

// TestShardedTraceTree pins the span tree a traced sharded IBIG query over
// in-process shards records under its WithTrace span — the path the
// served-request benchmark's shard layer reads: one engine span carrying the
// shard count and the τ trajectory, and nothing under it. The serial
// candidate loop opens no window and makes no per-call span; the peer plan's
// window → scatter/gather → shard tree is pinned in package shard
// (TestWindowedTraceTree).
func TestShardedTraceTree(t *testing.T) {
	const shards = 3
	ds := tkd.GenerateIND(3000, 4, 40, 0.2, 5)
	if _, err := tkd.Shard(ds, "d", tkd.WithShards(shards)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 7, 40} {
		tr := obs.New("query")
		var st tkd.Stats
		if _, err := ds.TopK(k, tkd.WithTrace(tr.Root()), tkd.WithStats(&st)); err != nil {
			t.Fatal(err)
		}
		tr.Root().End()
		eng := tr.JSON().Root.Children
		if len(eng) != 1 || eng[0].Name != "engine" {
			t.Fatalf("k=%d: root's children %+v, want one engine span", k, eng)
		}
		if got := eng[0].Attrs["shards"]; got != int64(shards) {
			t.Fatalf("k=%d: engine span's shards attr %v, want %d", k, got, shards)
		}
		// One sample at the first candidate, while the heap fills, and one at
		// the end.
		if tau := eng[0].Tau; len(tau) < 2 || tau[0][1] != -1 {
			t.Fatalf("k=%d: τ trajectory %v, want at least two samples starting at -1", k, tau)
		}
		if len(eng[0].Children) != 0 || st.Windows != 0 {
			t.Fatalf("k=%d: engine span has %d children over %d windows, want none", k, len(eng[0].Children), st.Windows)
		}
	}
}

// TestRunMatchesTopK holds Run to TopK under the equivalent options: the same
// items, Stats and Degradation, unsharded and sharded, an engine span under
// the Trace span, and the context's error once it is cancelled.
func TestRunMatchesTopK(t *testing.T) {
	for _, shards := range []int{0, 3} {
		ds := tkd.GenerateIND(3000, 4, 40, 0.2, 5)
		if shards > 0 {
			if _, err := tkd.Shard(ds, "d", tkd.WithShards(shards)); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 7, 40} {
			for _, partial := range []bool{false, true} {
				var wantSt tkd.Stats
				var wantDeg tkd.Degradation
				opts := []tkd.Option{tkd.WithWorkers(1), tkd.WithStats(&wantSt)}
				if partial {
					opts = append(opts, tkd.WithAllowPartial(&wantDeg))
				}
				want, err := ds.TopK(k, opts...)
				if err != nil {
					t.Fatal(err)
				}
				tr := obs.New("query")
				got, st, deg, err := ds.Run(k, tkd.Query{Workers: 1, Trace: tr.Root(), AllowPartial: partial})
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("shards=%d k=%d partial=%v", shards, k, partial)
				if fmt.Sprint(got.Items) != fmt.Sprint(want.Items) || st != wantSt {
					t.Fatalf("%s: Run %v %+v, TopK %v %+v", what, got.Items, st, want.Items, wantSt)
				}
				if partial && fmt.Sprint(deg) != fmt.Sprint(wantDeg) {
					t.Fatalf("%s: Run degradation %+v, TopK %+v", what, deg, wantDeg)
				}
				if eng := tr.JSON().Root.Children; len(eng) != 1 || eng[0].Name != "engine" {
					t.Fatalf("%s: Trace span's children %+v, want one engine span", what, eng)
				}
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, _, err := ds.Run(3, tkd.Query{Context: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: Run under a cancelled context: %v", shards, err)
		}
	}
}
