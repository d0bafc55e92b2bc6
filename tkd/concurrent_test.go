package tkd_test

import (
	"sync"
	"testing"

	"repro/tkd"
)

// TestConcurrentTopKSharedDataset exercises the server-shaped workload: many
// goroutines querying one shared Dataset with mixed k, algorithm and worker
// settings, without a prior Prepare — so the mutex-guarded lazy index
// construction itself is raced. Run under -race (CI does) this is the
// library's thread-safety contract test; every answer must equal the serial
// answer for the same parameters.
func TestConcurrentTopKSharedDataset(t *testing.T) {
	shared := tkd.GenerateAC(800, 4, 30, 0.25, 42)
	// An independent, identically generated copy provides the serial ground
	// truth without touching the shared dataset's state.
	ref := tkd.GenerateAC(800, 4, 30, 0.25, 42)

	type query struct {
		k       int
		alg     tkd.Algorithm
		workers int
	}
	queries := []query{
		{3, tkd.IBIG, 1}, {5, tkd.IBIG, 2}, {8, tkd.IBIG, 0},
		{3, tkd.BIG, 1}, {5, tkd.BIG, 3},
		{4, tkd.UBB, 1}, {7, tkd.UBB, 2},
		{4, tkd.ESB, 1}, {6, tkd.ESB, 4},
		{5, tkd.Naive, 2},
	}
	want := make([]tkd.Result, len(queries))
	for i, q := range queries {
		res, err := ref.TopK(q.k, tkd.WithAlgorithm(q.alg))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const rounds = 4
	var wg sync.WaitGroup
	for g := 0; g < len(queries)*rounds; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			got, err := shared.TopK(q.k, tkd.WithAlgorithm(q.alg), tkd.WithWorkers(q.workers))
			if err != nil {
				t.Errorf("query %+v: %v", q, err)
				return
			}
			exp := want[g%len(queries)]
			if len(got.Items) != len(exp.Items) {
				t.Errorf("query %+v: %d items, want %d", q, len(got.Items), len(exp.Items))
				return
			}
			for i := range got.Items {
				if got.Items[i] != exp.Items[i] {
					t.Errorf("query %+v: item %d = %+v, want %+v", q, i, got.Items[i], exp.Items[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentPrepare races Prepare with queries; both must be no-ops on
// top of an already-built state and never corrupt it.
func TestConcurrentPrepare(t *testing.T) {
	ds := tkd.GenerateIND(400, 4, 25, 0.2, 7)
	want, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds.Prepare()
			got, err := ds.TopK(5)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got.Items {
				if got.Items[i] != want.Items[i] {
					t.Errorf("item %d = %+v, want %+v", i, got.Items[i], want.Items[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
