// End-to-end integration tests across module boundaries: generator → CSV →
// loader → preprocessing → every query algorithm, exercised through both
// the public API and the internal packages.
package repro_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/tkd"
)

// TestPipelineCSVRoundTripAllAlgorithms generates a workload, pushes it
// through the CSV serializer and loader, and checks that every algorithm
// returns the same items on the original and the reloaded data.
func TestPipelineCSVRoundTripAllAlgorithms(t *testing.T) {
	orig := gen.Synthetic(gen.Config{N: 600, Dim: 5, Cardinality: 24, MissingRate: 0.3, Dist: gen.AC, Seed: 71})
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := data.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}

	preA := core.Preprocess(orig, nil)
	preB := core.Preprocess(loaded, nil)
	for _, alg := range core.Algorithms {
		a, _ := core.Run(alg, orig, 12, preA)
		b, _ := core.Run(alg, loaded, 12, preB)
		if !slices.Equal(a.Items, b.Items) {
			t.Fatalf("%v: answers diverge after CSV round trip: %v vs %v", alg, a.Items, b.Items)
		}
	}
}

// TestPreSharingAcrossQueries: one preprocessing artifact set must serve
// many queries (different k, different algorithms) without contamination.
func TestPreSharingAcrossQueries(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 800, Dim: 4, Cardinality: 16, MissingRate: 0.2, Dist: gen.IND, Seed: 72})
	shared := core.Preprocess(ds, nil)
	for _, k := range []int{2, 16, 64, 3, 1} { // deliberately non-monotone
		fresh, _ := core.Run(core.AlgIBIG, ds, k, core.Preprocess(ds, nil))
		reused, _ := core.Run(core.AlgIBIG, ds, k, shared)
		if !slices.Equal(fresh.Items, reused.Items) {
			t.Fatalf("k=%d: shared pre gave %v, fresh %v", k, reused.Items, fresh.Items)
		}
	}
}

// TestPublicAndInternalAgree: the tkd facade and the internal core must
// produce identical answers on the same generated data.
func TestPublicAndInternalAgree(t *testing.T) {
	pub := tkd.GenerateIND(500, 4, 20, 0.25, 73)
	var buf bytes.Buffer
	if err := pub.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	internal, err := data.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pubRes, err := pub.TopK(10, tkd.WithAlgorithm(tkd.BIG))
	if err != nil {
		t.Fatal(err)
	}
	intRes, _ := core.Run(core.AlgBIG, internal, 10, nil)
	if !slices.Equal(pubRes.Items, intRes.Items) {
		t.Fatalf("facade %v vs internal %v", pubRes.Items, intRes.Items)
	}
}

// TestTKDAnswerWithinKSkyband: every answer of a TKD query with score > 0
// need NOT be in the skyline (dominance is not transitive), but the top-1
// answer is always within the N-skyband and the result sets are internally
// consistent: answers are returned in non-increasing score order and every
// reported score is exact.
func TestTKDAnswerConsistencyOnRealShapes(t *testing.T) {
	for _, ds := range []*data.Dataset{
		gen.Zillow(74, 1500),
		gen.NBA(75),
	} {
		small := ds
		if small.Len() > 2000 {
			sub := data.New(ds.Dim())
			for i := 0; i < ds.Len(); i += ds.Len() / 2000 {
				o := ds.Obj(i)
				sub.MustAppend(o.ID, o.Values)
			}
			small = sub
		}
		pre := core.Preprocess(small, nil)
		res, _ := core.Run(core.AlgIBIG, small, 8, pre)
		prev := int(^uint(0) >> 1)
		for _, it := range res.Items {
			if it.Score > prev {
				t.Fatal("scores not non-increasing")
			}
			prev = it.Score
			if want := core.Score(small, it.Index); want != it.Score {
				t.Fatalf("reported score %d, exact %d", it.Score, want)
			}
		}
	}
}
