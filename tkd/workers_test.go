package tkd_test

import (
	"testing"

	"repro/tkd"
)

// TestWithWorkersDeterminism asserts the public determinism guarantee:
// TopK(… WithWorkers(n)) returns the same ID set and scores as the serial
// path for every algorithm, on several seeds. Run under -race this also
// exercises the engine's concurrency through the public API.
func TestWithWorkersDeterminism(t *testing.T) {
	algos := []tkd.Algorithm{tkd.Naive, tkd.ESB, tkd.UBB, tkd.BIG, tkd.IBIG}
	for _, seed := range []int64{3, 17} {
		ds := tkd.GenerateAC(900, 5, 40, 0.25, seed)
		ds.Prepare()
		for _, alg := range algos {
			want, err := ds.TopK(12, tkd.WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 5} {
				got, err := ds.TopK(12, tkd.WithAlgorithm(alg), tkd.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Items) != len(want.Items) {
					t.Fatalf("alg=%v seed=%d workers=%d: %d items, want %d",
						alg, seed, workers, len(got.Items), len(want.Items))
				}
				for i := range got.Items {
					if got.Items[i] != want.Items[i] {
						t.Fatalf("alg=%v seed=%d workers=%d: item %d = %+v, want %+v",
							alg, seed, workers, i, got.Items[i], want.Items[i])
					}
				}
			}
		}
	}
}
