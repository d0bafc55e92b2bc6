package core_test

import (
	"sort"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/paperdata"
)

// TestFig2Example reproduces the Fig. 2 walk-through: f = (4,2) dominates
// {a, c, e}, e ≺ b, yet f does not dominate b — transitivity is lost.
func TestFig2Example(t *testing.T) {
	M := data.Missing()
	ds := data.New(2)
	idx := map[string]int{}
	add := func(name string, x, y float64) {
		idx[name] = ds.MustAppend(name, []float64{x, y})
	}
	// The paper gives f=(4,2), c=(5,-), e=(-,4) explicitly; a, b, d are only
	// drawn. These coordinates satisfy every relation §3 states for Fig. 2:
	// f ≺ {a,c,e} exactly, e ≺ b, f ⊀ b, and the full score vector below.
	add("a", 6, 9)
	add("b", 2, 8)
	add("c", 5, M)
	add("d", 7, 1)
	add("e", M, 4)
	add("f", 4, 2)

	obj := func(n string) *data.Object { return ds.Obj(idx[n]) }
	if !core.Dominates(obj("f"), obj("c")) {
		t.Fatal("f must dominate c (4 < 5 on x)")
	}
	if core.Dominates(obj("c"), obj("e")) || core.Dominates(obj("e"), obj("c")) {
		t.Fatal("c and e share no dimension: incomparable")
	}
	if !core.Dominates(obj("f"), obj("e")) {
		t.Fatal("f must dominate e (2 < 4 on y)")
	}
	if !core.Dominates(obj("e"), obj("b")) {
		t.Fatal("e must dominate b (4 < 9 on y)")
	}
	if core.Dominates(obj("f"), obj("b")) {
		t.Fatal("f must NOT dominate b (2 > 2 fails on x: 4 > 2)")
	}
	// §3: score(f)=3, score(b)=score(c)=score(e)=2, score(d)=1, score(a)=0.
	want := map[string]int{"f": 3, "b": 2, "c": 2, "e": 2, "d": 1, "a": 0}
	for n, w := range want {
		if got := core.Score(ds, idx[n]); got != w {
			t.Errorf("score(%s) = %d, want %d", n, got, w)
		}
	}
	// T1D returns {f}.
	res, _ := core.Naive(ds, 1)
	if len(res.Items) != 1 || res.Items[0].ID != "f" {
		t.Fatalf("T1D = %v, want [f]", res.IDs())
	}
}

// TestSectionOneMovieExample reproduces the four-movie example of §1:
// m2 ≺ m3, score(m2)=2 via {m1, m3}, score(m4)=1, and T1D = {m2}.
func TestSectionOneMovieExample(t *testing.T) {
	M := data.Missing()
	ds := data.New(5)
	// Ratings per §1/Fig. 1: m1 is rated by a3..a5 only, m2 by a1..a3 only,
	// m3 by a2..a5 (so m2 and m3 share exactly dimensions 2 and 3, as the
	// dominance walk-through requires), m4 by everyone. Exact column
	// alignment is ambiguous in transcription; the values chosen satisfy
	// every claim of §1: m2[2]>m3[2], m2[3]>m3[3], a3 rates m2 above m1,
	// and the full score vector asserted below. Higher is better → negate.
	ds.MustAppend("m1", []float64{M, M, 3, 4, 2})
	ds.MustAppend("m2", []float64{5, 3, 4, M, M})
	ds.MustAppend("m3", []float64{M, 2, 1, 5, 3})
	ds.MustAppend("m4", []float64{3, 1, 5, 4, 4})
	ds.Negate()

	if !core.Dominates(ds.Obj(1), ds.Obj(2)) {
		t.Fatal("m2 must dominate m3")
	}
	want := map[string]int{"m1": 0, "m2": 2, "m3": 0, "m4": 1}
	for i, name := range []string{"m1", "m2", "m3", "m4"} {
		if got := core.Score(ds, i); got != want[name] {
			t.Errorf("score(%s) = %d, want %d", name, got, want[name])
		}
	}
	res, _ := core.Naive(ds, 1)
	if res.Items[0].ID != "m2" {
		t.Fatalf("T1D = %v, want m2", res.IDs())
	}
}

// TestFig5MaxScoreQueue checks every MaxScore bound and the queue order
// against Fig. 5.
func TestFig5MaxScoreQueue(t *testing.T) {
	ds := paperdata.Sample()
	q := core.BuildMaxScoreQueue(ds)
	for i, name := range paperdata.Names {
		if got, want := q.MaxScore[i], paperdata.MaxScore[name]; got != want {
			t.Errorf("MaxScore(%s) = %d, want %d", name, got, want)
		}
	}
	// The head of the queue must be C2 then A2, as in Example 2.
	if paperdata.Names[q.Order[0]] != "C2" || paperdata.Names[q.Order[1]] != "A2" {
		t.Fatalf("queue head = %s,%s; want C2,A2",
			paperdata.Names[q.Order[0]], paperdata.Names[q.Order[1]])
	}
	// Order must be non-increasing in MaxScore.
	for i := 1; i < len(q.Order); i++ {
		if q.MaxScore[q.Order[i-1]] < q.MaxScore[q.Order[i]] {
			t.Fatal("queue not sorted by descending MaxScore")
		}
	}
}

// TestSampleScores checks score(C2) = score(A2) = 16 (§4.1/Example 3) and
// the T2D answer {C2, A2} for every algorithm.
func TestSampleScores(t *testing.T) {
	ds := paperdata.Sample()
	if got := core.Score(ds, paperdata.Index("C2")); got != paperdata.T2DAnswerScore {
		t.Fatalf("score(C2) = %d, want %d", got, paperdata.T2DAnswerScore)
	}
	if got := core.Score(ds, paperdata.Index("A2")); got != paperdata.T2DAnswerScore {
		t.Fatalf("score(A2) = %d, want %d", got, paperdata.T2DAnswerScore)
	}
	pre := core.Preprocess(ds, []int{2, 2, 3, 3})
	for _, alg := range core.Algorithms {
		res, _ := core.Run(alg, ds, 2, pre)
		ids := res.IDs()
		sort.Strings(ids)
		if len(ids) != 2 || ids[0] != "A2" || ids[1] != "C2" {
			t.Errorf("%v T2D = %v, want [A2 C2]", alg, res.IDs())
		}
		for _, it := range res.Items {
			if it.Score != paperdata.T2DAnswerScore {
				t.Errorf("%v returned score %d for %s, want %d", alg, it.Score, it.ID, paperdata.T2DAnswerScore)
			}
		}
	}
}

// TestESBCandidateSet reproduces Fig. 4: the ESB candidate set for T2D is
// the 11-object union of local 2-skybands, 9 objects are pruned.
func TestESBCandidateSet(t *testing.T) {
	ds := paperdata.Sample()
	_, st := core.ESB(ds, 2)
	if st.Candidates != len(paperdata.ESBCandidates) {
		t.Fatalf("ESB candidates = %d, want %d", st.Candidates, len(paperdata.ESBCandidates))
	}
	if st.PrunedSkyband != ds.Len()-len(paperdata.ESBCandidates) {
		t.Fatalf("ESB pruned = %d, want %d", st.PrunedSkyband, ds.Len()-len(paperdata.ESBCandidates))
	}
}

// TestUBBEarlyTermination replays Example 2: UBB for T2D evaluates C2 and
// A2, then stops at B2 because MaxScore(B2) = 16 = τ; the other 18 objects
// are pruned by Heuristic 1 without scoring.
func TestUBBEarlyTermination(t *testing.T) {
	ds := paperdata.Sample()
	res, st := core.UBB(ds, 2, nil)
	if st.Scored != 2 {
		t.Fatalf("UBB scored %d objects, want 2 (Example 2)", st.Scored)
	}
	if st.PrunedH1 != 18 {
		t.Fatalf("UBB pruned %d by Heuristic 1, want 18", st.PrunedH1)
	}
	ids := res.IDs()
	sort.Strings(ids)
	if ids[0] != "A2" || ids[1] != "C2" {
		t.Fatalf("UBB answer = %v", res.IDs())
	}
}

// TestBIGEarlyTermination replays Example 3: BIG scores C2 (16) and A2 (16)
// via the bitmap index, then Heuristic 1 stops the scan at B2.
func TestBIGEarlyTermination(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{})
	res, st := core.BIG(ds, 2, ix, nil)
	if st.Scored != 2 {
		t.Fatalf("BIG scored %d objects, want 2 (Example 3)", st.Scored)
	}
	if st.PrunedH1 != 18 {
		t.Fatalf("BIG pruned %d by H1, want 18", st.PrunedH1)
	}
	for _, it := range res.Items {
		if it.Score != 16 {
			t.Fatalf("BIG score(%s) = %d, want 16", it.ID, it.Score)
		}
	}
}

// TestBIGRejectsBinnedIndex: BIG's Lemma 3 guarantee requires value
// granularity.
func TestBIGRejectsBinnedIndex(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{Bins: []int{2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.BIG(ds, 2, ix, nil)
}

// TestMaxScoreB3 reproduces the §4.2 walk-through for B3: T3(B3) has 13
// members, T4(B3) is empty, so MaxScore(B3) = 0.
func TestMaxScoreB3(t *testing.T) {
	ds := paperdata.Sample()
	q := core.BuildMaxScoreQueue(ds)
	if got := q.MaxScore[paperdata.Index("B3")]; got != 0 {
		t.Fatalf("MaxScore(B3) = %d, want 0", got)
	}
	// And B3 must be last in the queue.
	if paperdata.Names[q.Order[len(q.Order)-1]] != "B3" {
		t.Fatal("B3 not at queue tail")
	}
}

// TestLemma3OnSample: MaxBitScore(o) <= MaxScore(o) for every object of the
// sample under the unbinned index (Fig. 8 side by side).
func TestLemma3OnSample(t *testing.T) {
	ds := paperdata.Sample()
	ix := bitmapidx.Build(ds, bitmapidx.Options{})
	cur := ix.NewCursor()
	q := core.BuildMaxScoreQueue(ds)
	for i, name := range paperdata.Names {
		mbs := cur.MaxBitScore(i)
		if mbs > q.MaxScore[i] {
			t.Errorf("Lemma 3 violated for %s: MaxBitScore %d > MaxScore %d", name, mbs, q.MaxScore[i])
		}
	}
}
