package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/skyband"
)

// Naive answers the TKD query by exhaustive pairwise score computation over
// the whole dataset (§4.1's strawman): every object is scored against every
// other, then the k best are returned. RunWorkers runs it across a worker
// pool, through the batch-windowed engine.
func Naive(ds *data.Dataset, k int) (Result, Stats) { return Run(AlgNaive, ds, k, nil) }

// ESB is the extended skyband based algorithm (Algorithm 1): objects are
// partitioned into buckets by observed-dimension bit vector; a local
// k-skyband query inside each bucket prunes objects that provably cannot be
// answers (Lemma 1, sound because dominance is transitive within a bucket);
// the surviving candidates are scored exactly and the top k returned. It is
// ESBWorkers' serial path.
func ESB(ds *data.Dataset, k int) (Result, Stats) { return Run(AlgESB, ds, k, nil) }

// ESBWorkers is ESB across a worker pool (workers as in RunWorkers): the
// buckets' local k-skybands fan out across the workers (esbCandidates), and
// the survivors are scored through the batch-windowed engine. queue (nil
// builds one) supplies only the answer's tie order.
func ESBWorkers(ds *data.Dataset, k int, queue *MaxScoreQueue, workers int) (Result, Stats) {
	return RunWorkers(AlgESB, ds, k, &Pre{Queue: queue}, workers)
}

// esbCandidates returns ESB's candidate set SC — the union of every
// observed-mask bucket's local k-skyband, in no particular order — and its
// Stats share: the skyband's dominance tests (at most k per object) in
// Comparisons and the objects it discarded in PrunedSkyband. The buckets are
// independent, so they fan out across workers (workers follows
// clampWorkers); each worker reuses one scratch buffer across every bucket it
// scans and copies out only the survivors. A cancelled ctx stops the scan
// within a bucket (skyband.KSkybandAppend) and returns its error.
func esbCandidates(ctx context.Context, ds *data.Dataset, k, workers int) ([]int32, Stats, error) {
	m := ds.Buckets()
	buckets := make([][]int32, 0, len(m))
	for _, ids := range m {
		buckets = append(buckets, ids)
	}
	skybands := make([][]int32, len(buckets))
	var next atomic.Int64
	scan := func() {
		var scratch []int32
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(buckets) {
				return
			}
			scratch = skyband.KSkybandAppend(ctx, scratch, ds, buckets[i], k)
			skybands[i] = append(make([]int32, 0, len(scratch)), scratch...)
		}
	}
	var wg sync.WaitGroup
	for range clampWorkers(workers, len(buckets)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scan()
		}()
	}
	scan()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}

	var st Stats
	var cands []int32
	for i, ids := range buckets {
		st.Comparisons += int64(len(ids)) * int64(min(k, len(ids)))
		st.PrunedSkyband += len(ids) - len(skybands[i])
		cands = append(cands, skybands[i]...)
	}
	return cands, st, nil
}

// UBB is the upper bound based algorithm (Algorithm 2). It walks the
// MaxScore priority queue F in descending bound order, scoring objects
// exactly, and stops as soon as the next bound cannot beat τ — the k-th
// best score found so far (Heuristic 1). Everything after the cut-off is
// pruned without being scored.
func UBB(ds *data.Dataset, k int, queue *MaxScoreQueue) (Result, Stats) {
	return Run(AlgUBB, ds, k, &Pre{Queue: queue})
}
