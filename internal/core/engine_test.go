package core

import (
	"fmt"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
	"repro/internal/gen"
)

// TestUsefulWorkers pins the default worker count's cap: BIG and IBIG score
// in popcounts over one kernel block per column up to bitvec.BlockBits rows
// and are worth one worker there and n beyond it; Naive, ESB and UBB compare
// rows per candidate and keep n at every size.
func TestUsefulWorkers(t *testing.T) {
	const n = 4
	for _, c := range []struct {
		alg        Algorithm
		rows, want int
	}{
		{AlgBIG, bitvec.BlockBits, 1},
		{AlgIBIG, bitvec.BlockBits, 1},
		{AlgIBIG, 1, 1},
		{AlgBIG, bitvec.BlockBits + 1, n},
		{AlgIBIG, bitvec.BlockBits + 1, n},
		{AlgNaive, bitvec.BlockBits, n},
		{AlgESB, bitvec.BlockBits, n},
		{AlgUBB, bitvec.BlockBits, n},
	} {
		if got := UsefulWorkers(c.alg, c.rows, n); got != c.want {
			t.Errorf("UsefulWorkers(%v, %d rows, %d) = %d, want %d", c.alg, c.rows, n, got, c.want)
		}
	}
}

// TestParallelMatchesSerial asserts the engine's determinism guarantee: the
// parallel path returns a byte-identical answer set — same objects, same
// order, same scores — as the serial path, for every algorithm, worker
// count and seed. Run under -race this doubles as the engine's data-race
// test.
func TestParallelMatchesSerial(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		for _, dist := range []gen.Distribution{gen.IND, gen.AC} {
			cfg := gen.Default(dist, seed)
			cfg.N = 1200
			ds := gen.Synthetic(cfg)
			pre := Preprocess(ds, nil)
			for _, alg := range []Algorithm{AlgNaive, AlgESB, AlgUBB, AlgBIG, AlgIBIG} {
				want, _ := RunWorkers(alg, ds, 16, pre, 1)
				for _, workers := range []int{0, 2, 3, 8} {
					got, st := RunWorkers(alg, ds, 16, pre, workers)
					if len(got.Items) != len(want.Items) {
						t.Fatalf("%v/%v seed=%d workers=%d: %d items, want %d",
							alg, dist, seed, workers, len(got.Items), len(want.Items))
					}
					for i := range got.Items {
						if got.Items[i] != want.Items[i] {
							t.Fatalf("%v/%v seed=%d workers=%d: item %d = %+v, want %+v",
								alg, dist, seed, workers, i, got.Items[i], want.Items[i])
						}
					}
					// workers == 0 resolves to GOMAXPROCS, which may be 1.
					if alg != AlgNaive && workers >= 2 && st.Workers < 2 {
						t.Fatalf("%v workers=%d: engine reported Workers=%d", alg, workers, st.Workers)
					}
				}
			}
		}
	}
}

// TestESBWorkersMatchesSerial pins the parallel ESB path beyond the answer
// set: the bucket fan-out must reproduce the serial run's candidate count
// and skyband pruning exactly, since each is a sum over the buckets.
func TestESBWorkersMatchesSerial(t *testing.T) {
	for _, seed := range []int64{5, 29} {
		cfg := gen.Default(gen.AC, seed)
		cfg.N = 900
		cfg.MissingRate = 0.3
		ds := gen.Synthetic(cfg)
		want, wantSt := ESB(ds, 10)
		for _, workers := range []int{2, 4, 7} {
			got, st := ESBWorkers(ds, 10, nil, workers)
			for i := range want.Items {
				if got.Items[i] != want.Items[i] {
					t.Fatalf("seed=%d workers=%d: item %d = %+v, want %+v",
						seed, workers, i, got.Items[i], want.Items[i])
				}
			}
			if st.Candidates != wantSt.Candidates || st.PrunedSkyband != wantSt.PrunedSkyband {
				t.Fatalf("seed=%d workers=%d: candidates/pruned = %d/%d, want %d/%d",
					seed, workers, st.Candidates, st.PrunedSkyband,
					wantSt.Candidates, wantSt.PrunedSkyband)
			}
			if st.Scored != wantSt.Scored || st.Comparisons != wantSt.Comparisons {
				t.Fatalf("seed=%d workers=%d: scored/comparisons = %d/%d, want %d/%d",
					seed, workers, st.Scored, st.Comparisons, wantSt.Scored, wantSt.Comparisons)
			}
		}
	}
}

// TestUBBWorkersMatchesSerial pins the windowed Heuristic 1 behaviour on a
// dataset small enough that several windows stay partially filled.
func TestUBBWorkersMatchesSerial(t *testing.T) {
	cfg := gen.Default(gen.IND, 5)
	cfg.N = 300
	ds := gen.Synthetic(cfg)
	queue := BuildMaxScoreQueue(ds)
	for _, k := range []int{1, 4, 300} {
		want, _ := UBB(ds, k, queue)
		got, _ := RunWorkers(AlgUBB, ds, k, &Pre{Queue: queue}, 4)
		if len(got.Items) != len(want.Items) {
			t.Fatalf("k=%d: %d items, want %d", k, len(got.Items), len(want.Items))
		}
		for i := range got.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("k=%d: item %d = %+v, want %+v", k, i, got.Items[i], want.Items[i])
			}
		}
	}
}

// TestSharedColumnCache exercises many cursors of one index concurrently —
// every cursor reads the index's one copy of each column — and checks Q/P and
// the Heuristic 2 bound against a second build over the same data.
func TestSharedColumnCache(t *testing.T) {
	cfg := gen.Default(gen.IND, 11)
	cfg.N = 500
	ds := gen.Synthetic(cfg)
	sorted := ds.SortDims()
	raw := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Bins: []int{8}})
	shared := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Bins: []int{8}})
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			rc, cc := raw.NewCursor(), shared.NewCursor()
			for o := 0; o < ds.Len(); o++ {
				rq, rp := rc.QP(o)
				q, p := cc.QP(o)
				if !q.Equal(rq) || !p.Equal(rp) {
					done <- errAt(o)
					return
				}
				if rc.MaxBitScore(o) != cc.MaxBitScore(o) {
					done <- errAt(o)
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errAt(o int) error { return fmt.Errorf("Q/P mismatch at object %d", o) }
