package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitmapidx"
	"repro/internal/btree"
	"repro/internal/data"
	"repro/internal/obs"
)

// The parallel query engine. The UBB/BIG/IBIG main loop walks the MaxScore
// queue in descending bound order, scoring candidates against a monotone
// threshold τ; candidate scoring is read-only and independent, so the engine
// pulls candidates off the queue in batch windows and fans each window
// across a worker pool:
//
//   - every worker owns its scoring state (bitmap cursor, epoch tags) — only
//     the dataset, the index (including its shared decompressed-column
//     cache) and the B+-trees are shared, all read-only;
//   - finished candidates are committed to the candidate heap in queue
//     order as workers complete them (a commit frontier under a light
//     mutex), replaying exactly the offer sequence the serial loop would
//     have produced. The live τ is republished through an atomic after
//     every commit, so a worker reads a τ that is at most "in-flight
//     candidates" stale — and a stale τ is only ever lower than the live
//     one, so Heuristics 1/2/3 prune conservatively, never incorrectly;
//   - candidates a stale τ let through that the serial loop would have
//     pruned always carry a score ≤ the replayed τ at their position, so
//     their offers are no-ops and the heap — hence the answer set, IDs and
//     scores — is byte-identical to the serial run's. (Which candidates
//     get H2/H3-pruned versus scored-then-rejected does depend on timing,
//     so the pruning counters in Stats may vary run to run; the answer
//     never does. For BIG/IBIG, Comparisons counts the walked members of W
//     — rows tying an inexact bucket of a candidate — Heuristic 3 can only
//     fire on a candidate that has some, and a candidate whose buckets are
//     all exact is Scored by two popcounts whatever τ is: see bigScore.)
//   - Heuristic 1's early stop is preserved twice over: workers skip
//     candidates whose bound cannot beat the τ they observe, and a window
//     whose first (highest-bound) candidate cannot beat τ ends the query.
//
// The window size bounds the slot buffer and the H1 stop granularity; 256
// candidates amortizes the fan-out cost while keeping the tail overshoot
// negligible.

// WindowSize is the number of MaxScore-queue candidates one parallel batch
// window covers.
const WindowSize = 256

// scorer computes one candidate's exact score, or prunes it against tau
// (full reports whether the candidate heap is full, i.e. tau is live).
// Implementations are confined to a single worker; st accumulates that
// worker's counters.
type scorer interface {
	score(o int, tau int, full bool, st *Stats) (int, scoreResult)
}

// bigScorer adapts bigState to the scorer interface, dispatching on the
// refinement strategy.
type bigScorer struct {
	state  *bigState
	refine Refinement
}

func (b bigScorer) score(o, tau int, full bool, st *Stats) (int, scoreResult) {
	if b.refine == RefineBTree {
		return b.state.bigScoreBTree(o, tau, full, st)
	}
	return b.state.bigScore(o, tau, full, st)
}

// ubbScorer scores candidates exhaustively (Algorithm 2 has no per-object
// pruning beyond Heuristic 1, which the engine applies at the queue level).
type ubbScorer struct{ ds *data.Dataset }

func (u ubbScorer) score(o, tau int, full bool, st *Stats) (int, scoreResult) {
	st.Comparisons += int64(u.ds.Len() - 1)
	return Score(u.ds, o), scored
}

// clampWorkers resolves the public workers knob: <=0 selects GOMAXPROCS,
// and no query needs more workers than it has candidates.
func clampWorkers(workers, candidates int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > candidates {
		workers = candidates
	}
	return workers
}

// skippedH1 marks a candidate a worker skipped because its MaxScore bound
// could not beat the τ it observed — the worker-side Heuristic 1.
const skippedH1 scoreResult = -1

// slot is one candidate's outcome inside a batch window.
type slot struct {
	score int
	how   scoreResult
	done  bool
}

// slotPool recycles window slot buffers across queries: a serving process
// runs the engine once per (batched) query, and the buffer is the only
// per-run allocation left on the window path. Pointer-to-array, so neither
// Get nor Put boxes a slice header.
var slotPool = sync.Pool{
	New: func() any { return new([WindowSize]slot) },
}

// engineRun is the batch-windowed parallel main loop shared by UBB, BIG and
// IBIG. One scorer per worker; len(scorers) is the worker count. sp, when
// non-nil, receives one τ trajectory sample per window — recording happens
// at window granularity (never per candidate), and a nil sp costs one
// predictable branch per window, keeping the hot path allocation-free.
func engineRun(ds *data.Dataset, k int, queue *MaxScoreQueue, scorers []scorer, sp *obs.Span) (Result, Stats) {
	workers := len(scorers)
	var st Stats
	st.Workers = workers
	wstats := make([]Stats, workers)
	sc := newCandidateHeap(k)
	fr := NewFrontier(queue)
	var next atomic.Int64
	order := queue.Order

	slotBuf := slotPool.Get().(*[WindowSize]slot)
	defer slotPool.Put(slotBuf)
	slots := slotBuf[:]

	// commit folds finished slots into the heap in queue order — the commit
	// frontier only advances over contiguous done slots, so offers replay
	// the serial sequence exactly no matter which worker finishes first.
	// Every advance republishes τ through the window frontier's live cell,
	// where in-flight workers (and, in the sharded deployment, remote
	// shards) read it back.
	var mu sync.Mutex
	frontier := 0
	commit := func(start, end, i int, sl slot) {
		mu.Lock()
		slots[i-start] = sl
		if i == frontier {
			for frontier < end && slots[frontier-start].done {
				fsl := slots[frontier-start]
				switch fsl.how {
				case skippedH1:
					st.PrunedH1++
				case prunedH2:
					st.Candidates++
					st.PrunedH2++
				case prunedH3:
					st.Candidates++
					st.PrunedH3++
				default:
					st.Candidates++
					st.Scored++
					idx := int(order[frontier])
					sc.offer(Item{Index: idx, ID: ds.Obj(idx).ID, Score: fsl.score})
				}
				frontier++
			}
			fr.SetTau(sc.tau())
		}
		mu.Unlock()
	}

	for {
		fr.SetTau(sc.tau())
		if sp != nil {
			sp.SampleTau(fr.Pos(), fr.Tau())
		}
		start, window, pruned, ok := fr.NextWindow(WindowSize)
		if !ok {
			// Heuristic 1 at window granularity: the queue is sorted by
			// descending bound, so nothing after the cut can beat τ.
			st.PrunedH1 += pruned
			break
		}
		end := start + len(window)
		st.Windows++
		for i := range slots {
			slots[i] = slot{}
		}
		frontier = start
		next.Store(int64(start))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := scorers[w]
				ws := &wstats[w]
				for {
					i := int(next.Add(1)) - 1
					if i >= end {
						return
					}
					t := fr.Tau()
					if t >= 0 && queue.MaxScore[order[i]] <= t {
						// Worker-side Heuristic 1: the serial loop would
						// have stopped at or before this candidate.
						commit(start, end, i, slot{how: skippedH1, done: true})
						continue
					}
					got, how := s.score(int(order[i]), t, t >= 0, ws)
					commit(start, end, i, slot{score: got, how: how, done: true})
				}
			}(w)
		}
		wg.Wait()
	}
	if sp != nil {
		sp.SampleTau(fr.Pos(), sc.tau())
	}
	for w := range wstats {
		st.Comparisons += wstats[w].Comparisons
	}
	return sc.result(), st
}

// bitmapRunParallel runs BIG/IBIG across workers goroutines (<=0 selects
// GOMAXPROCS; 1 falls back to the serial loop). The answer set is
// byte-identical to the serial path's.
func bitmapRunParallel(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue, refine Refinement, trees []*btree.Tree, workers int, sp *obs.Span) (Result, Stats) {
	if queue == nil {
		queue = BuildMaxScoreQueue(ds)
	}
	workers = clampWorkers(workers, len(queue.Order))
	if workers <= 1 {
		return bitmapRunRefine(ds, k, ix, queue, refine, trees, sp)
	}
	if refine == RefineBTree && trees == nil {
		trees = BuildDimTrees(ds)
	}
	scorers := make([]scorer, workers)
	for w := range scorers {
		scorers[w] = bigScorer{state: newBigState(ds, ix, refine, trees), refine: refine}
	}
	return engineRun(ds, k, queue, scorers, sp)
}

// IBIGBTreeWorkers is IBIG with the B+-tree Q−P refinement across a worker
// pool. trees may be nil (built on the fly); the trees are shared read-only
// by every worker.
func IBIGBTreeWorkers(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue, trees []*btree.Tree, workers int) (Result, Stats) {
	return bitmapRunParallel(ds, k, ix, queue, RefineBTree, trees, workers, nil)
}

// IBIGBTreeWorkersTraced is IBIGBTreeWorkers with τ trajectory sampling into
// sp (nil behaves exactly like IBIGBTreeWorkers).
func IBIGBTreeWorkersTraced(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *MaxScoreQueue, trees []*btree.Tree, workers int, sp *obs.Span) (Result, Stats) {
	return bitmapRunParallel(ds, k, ix, queue, RefineBTree, trees, workers, sp)
}

// NaiveWorkers is the exhaustive baseline across a worker pool, built on the
// batch-windowed engine: every object is scored, windows walk the dataset in
// index order, and the in-order merge makes the answer byte-identical to
// Naive's, rank-k tie-breaks included.
func NaiveWorkers(ds *data.Dataset, k int, workers int) (Result, Stats) {
	workers = clampWorkers(workers, ds.Len())
	if workers <= 1 {
		return Naive(ds, k)
	}
	n := ds.Len()
	// A trivial full-scan queue: dataset order, bounds that never trip the
	// Heuristic 1 cut (no score reaches n).
	queue := &MaxScoreQueue{Order: make([]int32, n), MaxScore: make([]int, n)}
	for i := 0; i < n; i++ {
		queue.Order[i] = int32(i)
		queue.MaxScore[i] = n
	}
	scorers := make([]scorer, workers)
	for w := range scorers {
		scorers[w] = ubbScorer{ds: ds}
	}
	return engineRun(ds, k, queue, scorers, nil)
}
