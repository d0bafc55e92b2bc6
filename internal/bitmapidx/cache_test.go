package bitmapidx_test

import (
	"sync"
	"testing"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/tkd"
)

// cacheTestIndexes builds a Raw reference index and a Concise index over the
// same synthetic dataset, so cache behaviour can be checked against the
// uncached ground truth.
func cacheTestIndexes(t *testing.T) (raw, conc *bitmapidx.Index) {
	t.Helper()
	ds := gen.Synthetic(gen.Config{N: 700, Dim: 5, Cardinality: 30, MissingRate: 0.2, Dist: gen.IND, Seed: 11})
	raw = bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Raw})
	conc = bitmapidx.Build(ds, bitmapidx.Options{Codec: bitmapidx.Concise})
	return raw, conc
}

// colBytes is the size of one decompressed column of an index over n rows.
func colBytes(n int) int64 { return int64(8 * ((n + 63) / 64)) }

// checkQP holds cur's Q/P for objects from, from+step, … to the Raw index's.
func checkQP(t *testing.T, cur, ref *bitmapidx.Cursor, from, step int) bool {
	t.Helper()
	for o := from; o < ref.Index().Dataset().Len(); o += step {
		q, p := cur.QP(o)
		wantQ, wantP := ref.QP(o)
		if !q.Equal(wantQ) || !p.Equal(wantP) {
			t.Errorf("object %d: Q/P diverge from the Raw index", o)
			return false
		}
	}
	return true
}

// TestCacheCounters checks the hit/miss accounting of the decompressed-
// column cache: a cold pass pays one miss per distinct column it touches and
// keeps each resident, and a warm repeat of the same objects is all hits.
func TestCacheCounters(t *testing.T) {
	_, ix := cacheTestIndexes(t)
	cur := ix.NewCursor()
	for o := 0; o < 50; o++ {
		cur.QP(o)
	}
	st := ix.CacheStats()
	if st.Misses == 0 {
		t.Fatal("cold pass recorded no cache misses")
	}
	if st.Bytes != st.Misses*colBytes(ix.Dataset().Len()) || st.Bytes > st.Budget {
		t.Fatalf("%d misses left %d bytes resident under budget %d, want one column each", st.Misses, st.Bytes, st.Budget)
	}
	for o := 0; o < 50; o++ {
		cur.QP(o)
	}
	after := ix.CacheStats()
	if after.Misses != st.Misses {
		t.Fatalf("warm repeat paid %d extra misses", after.Misses-st.Misses)
	}
	if after.Hits <= st.Hits {
		t.Fatal("warm repeat recorded no cache hits")
	}
}

// TestCacheEviction runs the cache over its budget: the first columns fill
// it, every later one is read through scratch (a miss each time), and a
// shrink below what is resident evicts everything before the cache refills
// under the new bound. Q/P stay identical to the Raw index throughout.
func TestCacheEviction(t *testing.T) {
	raw, ix := cacheTestIndexes(t)
	col := colBytes(raw.Dataset().Len())
	budget := 4 * col
	ix.SetCacheBudget(budget)
	cur, ref := ix.NewCursor(), raw.NewCursor()
	if !checkQP(t, cur, ref, 0, 7) {
		return
	}
	st := ix.CacheStats()
	if st.Bytes != budget || st.Budget != budget {
		t.Fatalf("over budget: %d bytes resident, budget reads %d, want both %d", st.Bytes, st.Budget, budget)
	}
	if st.Misses <= 4 {
		t.Fatalf("%d misses: the pass never read past the budget", st.Misses)
	}
	ix.SetCacheBudget(2 * col)
	if got := ix.CacheStats().Bytes; got != 0 {
		t.Fatalf("shrink below the resident set left %d bytes", got)
	}
	if !checkQP(t, cur, ref, 3, 7) {
		return
	}
	if got := ix.CacheStats().Bytes; got != 2*col {
		t.Fatalf("refill under the shrunk budget: %d bytes resident, want %d", got, 2*col)
	}
}

// TestCacheShrinkEvictsImmediately checks that SetCacheBudget below the
// current residency drops it synchronously rather than waiting for the next
// miss, and that the cache refills first-come under the new bound.
func TestCacheShrinkEvictsImmediately(t *testing.T) {
	_, ix := cacheTestIndexes(t)
	cur := ix.NewCursor()
	for o := 0; o < 80; o++ {
		cur.QP(o)
	}
	st := ix.CacheStats()
	if st.Bytes == 0 {
		t.Fatal("warmup left nothing resident")
	}
	target := st.Bytes / 2
	ix.SetCacheBudget(target)
	if got := ix.CacheStats(); got.Bytes != 0 {
		t.Fatalf("resident bytes %d after shrink to %d, want every column dropped", got.Bytes, target)
	}
	for o := 0; o < 80; o++ {
		cur.QP(o)
	}
	if got := ix.CacheStats(); got.Bytes == 0 || got.Bytes > target {
		t.Fatalf("refill left %d bytes resident under budget %d", got.Bytes, target)
	}
}

// TestCacheConcurrentEviction hammers one small-budget cache from many
// goroutines while another keeps shrinking and restoring the budget; under
// -race this pins the lock-free hit and fill paths against the drop, every
// goroutine re-checks answers against Raw, and what stays resident never
// exceeds the larger budget.
func TestCacheConcurrentEviction(t *testing.T) {
	raw, ix := cacheTestIndexes(t)
	col := colBytes(raw.Dataset().Len())
	ix.SetCacheBudget(3 * col)
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for {
			select {
			case <-stop:
				ix.SetCacheBudget(3 * col)
				return
			default:
				ix.SetCacheBudget(col)
				ix.SetCacheBudget(3 * col)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			checkQP(t, ix.NewCursor(), raw.NewCursor(), g, 11)
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flipped
	if st := ix.CacheStats(); st.Bytes > st.Budget || st.Bytes%col != 0 {
		t.Fatalf("resident bytes %d after the run, budget %d", st.Bytes, st.Budget)
	}
}

// TestCacheCensus is the evidence behind a cache that fills but never
// evicts (DESIGN.md §1): on every index the repository serves — the four
// benchmark shapes — and on the largest the paper's setups build, one key
// cycle leaves at most DefaultCacheBudget resident, each miss decompressed a
// distinct column that stayed resident, and a repeat of the cycle pays no
// miss at all.
func TestCacheCensus(t *testing.T) {
	heavy := gen.Synthetic(gen.Config{N: 100_000, Dim: 5, Cardinality: 100, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	heavyKs := []int{4, 8, 16, 32, 64, 6, 12, 24, 48}
	check := func(name string, rows int, ks []int, topk func(k int), stats func() bitmapidx.CacheStats) {
		t.Helper()
		for _, k := range ks {
			topk(k)
		}
		st := stats()
		if st.Bytes > bitmapidx.DefaultCacheBudget || st.Bytes != st.Misses*colBytes(rows) {
			t.Errorf("%s: %d misses, %d bytes resident; want one resident column per miss, within %d", name, st.Misses, st.Bytes, bitmapidx.DefaultCacheBudget)
		}
		for _, k := range ks {
			topk(k)
		}
		if again := stats(); again.Misses != st.Misses {
			t.Errorf("%s: the repeat cycle paid %d misses", name, again.Misses-st.Misses)
		}
		t.Logf("%-44s %5d misses %8d hits %10d B resident", name, st.Misses, st.Hits, st.Bytes)
	}
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
		ks   []int
		ix   func(*data.Sorted) *bitmapidx.Index
	}{
		{"query-heavy, ingest (100k x 5, c 100, sigma 0.2)", heavy, heavyKs, serving(nil)},
		{"query-light (2000 x 4, c 40, sigma 0.2)", gen.Synthetic(gen.Config{N: 2000, Dim: 4, Cardinality: 40, MissingRate: 0.2, Dist: gen.IND, Seed: 1}), []int{1, 2, 3, 4, 5, 6, 7}, serving(nil)},
		{"paper IND (100k x 10), pure CONCISE, 128 bins", gen.Synthetic(gen.Default(gen.IND, 1)), []int{16}, func(s *data.Sorted) *bitmapidx.Index {
			return bitmapidx.BuildSorted(s, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: []int{128}})
		}},
		{"Zillow-50k at {6,10,35,5000,1000} bins", gen.Zillow(1, 50_000), []int{16}, serving([]int{6, 10, 35, 5000, 1000})},
	} {
		ix := tc.ix(tc.ds.SortDims())
		pre := &core.Pre{Binned: ix, Queue: core.BuildMaxScoreQueueFromIndex(ix)}
		check(tc.name, tc.ds.Len(), tc.ks, func(k int) { core.Run(core.AlgIBIG, tc.ds, k, pre) }, ix.CacheStats)
	}

	// query-sharded: the same rows behind three in-process shards, summed
	// (each slice holds 33,333 or 33,334 rows, the same column size).
	sharded, err := tkd.Shard(tkd.GenerateIND(100_000, 5, 100, 0.2, 1), "census", tkd.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	check("query-sharded (three slices of query-heavy)", 100_000/3, heavyKs, func(k int) {
		if _, err := sharded.TopK(k); err != nil {
			t.Fatal(err)
		}
	}, func() bitmapidx.CacheStats {
		st := sharded.CacheStats()
		return bitmapidx.CacheStats{Hits: st.Hits, Misses: st.Misses, Bytes: st.Bytes}
	})
}

// serving builds the serving index under the given bin layout (nil: the
// dataset's own rule).
func serving(bins []int) func(*data.Sorted) *bitmapidx.Index {
	return func(s *data.Sorted) *bitmapidx.Index { return core.BuildServingIndex(s, bins) }
}
