package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/skyband"
)

// Naive answers the TKD query by exhaustive pairwise score computation over
// the whole dataset (§4.1's strawman): every object is scored against every
// other, then the k best are returned.
func Naive(ds *data.Dataset, k int) (Result, Stats) {
	var st Stats
	candidates := make([]int32, ds.Len())
	for i := range candidates {
		candidates[i] = int32(i)
	}
	st.Candidates = len(candidates)
	return topKOf(ds, candidates, k, &st), st
}

// maskBucket is one observed-dimension bucket in the deterministic
// (ascending-mask) enumeration order shared by the serial and parallel ESB
// paths, so both produce the same candidate sequence — and hence identical
// rank-k tie-breaks.
type maskBucket struct {
	mask uint64
	ids  []int32
}

// sortedBuckets returns the dataset's observed-mask buckets sorted by mask.
func sortedBuckets(ds *data.Dataset) []maskBucket {
	m := ds.Buckets()
	out := make([]maskBucket, 0, len(m))
	for mask, ids := range m {
		out = append(out, maskBucket{mask: mask, ids: ids})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mask < out[j].mask })
	return out
}

// ESB is the extended skyband based algorithm (Algorithm 1): objects are
// partitioned into buckets by observed-dimension bit vector; a local
// k-skyband query inside each bucket prunes objects that provably cannot be
// answers (Lemma 1, sound because dominance is transitive within a bucket);
// the surviving candidates are scored exactly and the top k returned.
func ESB(ds *data.Dataset, k int) (Result, Stats) {
	var st Stats
	var candidates []int32
	for _, b := range sortedBuckets(ds) {
		sb := skyband.KSkyband(ds, b.ids, k)
		// Local k-skyband costs at most k dominance tests per object.
		st.Comparisons += int64(len(b.ids)) * int64(min(k, len(b.ids)))
		st.PrunedSkyband += len(b.ids) - len(sb)
		candidates = append(candidates, sb...)
	}
	st.Candidates = len(candidates)
	return topKOf(ds, candidates, k, &st), st
}

// ESBWorkers is ESB across a worker pool: the per-bucket local k-skyband
// queries are independent, so buckets fan out across workers; the surviving
// candidates are then scored through the batch-windowed engine in the same
// bucket-major order the serial loop uses, replaying its heap offers exactly
// — the answer set is byte-identical to ESB's, including rank-k tie-breaks.
func ESBWorkers(ds *data.Dataset, k int, workers int) (Result, Stats) {
	buckets := sortedBuckets(ds)
	workers = clampWorkers(workers, ds.Len())
	if workers <= 1 {
		return ESB(ds, k)
	}

	// Phase 1: local skybands, one bucket per task. Each worker reuses one
	// scratch buffer across every bucket it scans (and across the batch
	// windows of a serving workload, via the engine's pooled buffers), then
	// copies out only the survivors — the allocation is survivor-sized, not
	// bucket-sized.
	skybands := make([][]int32, len(buckets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch []int32
			for {
				i := int(next.Add(1)) - 1
				if i >= len(buckets) {
					return
				}
				scratch = skyband.KSkybandAppend(scratch, ds, buckets[i].ids, k)
				skybands[i] = append(make([]int32, 0, len(scratch)), scratch...)
			}
		}()
	}
	wg.Wait()

	var st Stats
	var candidates []int32
	for i, b := range buckets {
		st.Comparisons += int64(len(b.ids)) * int64(min(k, len(b.ids)))
		st.PrunedSkyband += len(b.ids) - len(skybands[i])
		candidates = append(candidates, skybands[i]...)
	}

	// Phase 2: exact scoring through the candidate loop, over a full-scan
	// queue in candidate order, so every candidate is scored just as topKOf
	// would.
	res, est := runQueue(ds, k, fullScan(ds, candidates), workers, func() scorer { return ubbScorer{ds: ds} }, nil)
	est.Comparisons += st.Comparisons
	est.PrunedSkyband = st.PrunedSkyband
	return res, est
}

// UBB is the upper bound based algorithm (Algorithm 2). It walks the
// MaxScore priority queue F in descending bound order, scoring objects
// exactly, and stops as soon as the next bound cannot beat τ — the k-th
// best score found so far (Heuristic 1). Everything after the cut-off is
// pruned without being scored.
func UBB(ds *data.Dataset, k int, queue *MaxScoreQueue) (Result, Stats) {
	return runQueue(ds, k, queue, 1, func() scorer { return ubbScorer{ds: ds} }, nil)
}
