package skyband_test

import (
	"testing"

	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/paperdata"
	"repro/internal/skyband"
)

// bruteSkyband is the O(n²) definition.
func bruteSkyband(ds *data.Dataset, k int) map[int32]bool {
	out := map[int32]bool{}
	for i := 0; i < ds.Len(); i++ {
		dominators := 0
		for j := 0; j < ds.Len(); j++ {
			if i != j && ds.Obj(j).Dominates(ds.Obj(i)) {
				dominators++
			}
		}
		if dominators < k {
			out[int32(i)] = true
		}
	}
	return out
}

func TestGlobalKSkybandAgainstBruteForce(t *testing.T) {
	configs := []gen.Config{
		{N: 200, Dim: 3, Cardinality: 8, MissingRate: 0.3, Dist: gen.IND, Seed: 41},
		{N: 150, Dim: 4, Cardinality: 5, MissingRate: 0.5, Dist: gen.AC, Seed: 42},
		{N: 120, Dim: 2, Cardinality: 20, MissingRate: 0.0, Dist: gen.IND, Seed: 43},
	}
	for _, cfg := range configs {
		ds := gen.Synthetic(cfg)
		for _, k := range []int{1, 2, 4, 8} {
			want := bruteSkyband(ds, k)
			got := skyband.GlobalKSkyband(ds, k)
			if len(got) != len(want) {
				t.Fatalf("cfg=%+v k=%d: %d members, want %d", cfg, k, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("cfg=%+v k=%d: unexpected member %d", cfg, k, id)
				}
			}
		}
	}
}

// TestGlobalSkylineOnSample: the incomplete-data skyline (the 1-skyband) of
// the Fig. 2 constellation holds every object brute force finds undominated.
func TestGlobalSkylineOnSample(t *testing.T) {
	ds := paperdata.Sample()
	want := bruteSkyband(ds, 1)
	got := skyband.GlobalKSkyband(ds, 1)
	if len(got) != len(want) {
		t.Fatalf("skyline size %d, want %d", len(got), len(want))
	}
	inGot := map[int32]bool{}
	for _, id := range got {
		inGot[id] = true
	}
	for id := range want {
		if !inGot[id] {
			t.Fatalf("skyline missing %s", paperdata.Names[id])
		}
	}
}

func TestGlobalKSkybandMonotoneInK(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 300, Dim: 3, Cardinality: 10, MissingRate: 0.25, Dist: gen.IND, Seed: 44})
	prev := map[int32]bool{}
	for k := 1; k <= 6; k++ {
		cur := skyband.GlobalKSkyband(ds, k)
		set := map[int32]bool{}
		for _, id := range cur {
			set[id] = true
		}
		for id := range prev {
			if !set[id] {
				t.Fatalf("k=%d lost member %d from k=%d", k, id, k-1)
			}
		}
		prev = set
	}
}

func TestGlobalKSkybandZeroK(t *testing.T) {
	ds := paperdata.Sample()
	if got := skyband.GlobalKSkyband(ds, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

// TestGlobalSkylineNonTransitivity: on incomplete data an object can be in
// the skyline even though it dominates nothing, and a cycle member can be
// excluded — just verify the skyline is never empty on non-empty data and
// every member is undominated.
func TestGlobalSkylineMembersUndominated(t *testing.T) {
	ds := gen.Synthetic(gen.Config{N: 400, Dim: 4, Cardinality: 6, MissingRate: 0.4, Dist: gen.AC, Seed: 45})
	got := skyband.GlobalKSkyband(ds, 1)
	if len(got) == 0 {
		t.Fatal("empty skyline on non-empty dataset")
	}
	for _, id := range got {
		for j := 0; j < ds.Len(); j++ {
			if int32(j) != id && ds.Obj(j).Dominates(ds.Obj(int(id))) {
				t.Fatalf("skyline member %d is dominated by %d", id, j)
			}
		}
	}
}
