package tkd_test

import (
	"sync"
	"testing"

	"repro/internal/bitmapidx"
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

// TestCacheBudgetPlumbing checks that SetCacheBudget reaches the compressed
// index and CacheStats surfaces live counters under a budget squeezed below
// the working set. The rows are complete, so each dimension's missing column
// is all zeros — one CONCISE fill word, which the scoring kernel reads through
// the decompressed-column cache — and at 4000 rows (504-byte columns) only
// two of the five fit in 1 KiB: the other three are read through scratch, a
// miss and a fallback on every touch.
func TestCacheBudgetPlumbing(t *testing.T) {
	ds := tkd.GenerateIND(4000, 5, 30, 0, 13)
	ds.SetCacheBudget(1 << 10) // far below the column population
	if _, err := ds.TopK(10); err != nil {
		t.Fatal(err)
	}
	st := ds.CacheStats()
	if st.Budget != 1<<10 {
		t.Fatalf("budget = %d, want %d", st.Budget, 1<<10)
	}
	if st.Misses == 0 {
		t.Fatal("no cache misses recorded by an IBIG query")
	}
	if st.Misses <= 2 || st.Bytes != 2*504 {
		t.Fatalf("%d misses, %d bytes resident: want two columns resident and the rest missing on every touch", st.Misses, st.Bytes)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
	// The representation counters flow and account for every compressed
	// column served: run-native kernel or dense fallback.
	if st.DenseCols == 0 || st.CompressedCols == 0 {
		t.Fatalf("adaptive index served dense=%d compressed=%d columns, want both", st.DenseCols, st.CompressedCols)
	}
	if st.CompressedCols != st.NativeKernel+st.Fallback {
		t.Fatalf("compressed %d != native %d + fallback %d", st.CompressedCols, st.NativeKernel, st.Fallback)
	}

	// One rule on both topologies: a budget splits evenly over the parts, 0
	// restores the bitmapidx default on each of them, and a BIG query — which
	// builds a value-granular bitmap, not a serving index — leaves IndexBuilds
	// alone.
	sharded, err := tkd.Shard(tkd.GenerateIND(4000, 5, 30, 0.10, 13), "budget", tkd.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		ds    *tkd.Dataset
		parts int64
	}{{"unsharded", ds, 1}, {"sharded", sharded, 3}} {
		const b = 3 << 10
		arm.ds.SetCacheBudget(b)
		if _, err := arm.ds.TopK(10); err != nil {
			t.Fatal(err)
		}
		if got := arm.ds.CacheStats().Budget; got != b {
			t.Fatalf("%s: budget = %d, want %d", arm.name, got, b)
		}
		arm.ds.SetCacheBudget(0)
		if got, want := arm.ds.CacheStats().Budget, arm.parts*bitmapidx.DefaultCacheBudget; got != want {
			t.Fatalf("%s: budget after SetCacheBudget(0) = %d, want the default %d", arm.name, got, want)
		}
		builds := arm.ds.IndexBuilds()
		if _, err := arm.ds.TopK(10, tkd.WithAlgorithm(tkd.BIG)); err != nil {
			t.Fatal(err)
		}
		if got := arm.ds.IndexBuilds(); got != builds {
			t.Fatalf("%s: a BIG query moved IndexBuilds %d -> %d", arm.name, builds, got)
		}
	}
}
