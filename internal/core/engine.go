package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/obs"
)

// The candidate loop. UBB, BIG and IBIG are one framework (Algorithms 2 and
// 4, §4.4): walk the MaxScore queue in descending bound order, stop on
// Heuristic 1, score each candidate against a monotone threshold τ. Only the
// scoring step differs, so each algorithm is a scorer and the walk exists
// twice — serialRun, the paper's loop and the reference, and engineRun, its
// parallel form — with runQueue choosing between them by worker count.
//
// Candidate scoring is read-only and independent, so the engine pulls
// candidates off the queue in batch windows and fans each window across a
// worker pool:
//
//   - every worker owns its scorer (a bitmap cursor and its scratch) — only
//     the dataset and the index (including its shared decompressed-column
//     cache) are shared, both read-only;
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
//     all exact is Scored by two popcounts whatever τ is: see bigState.score.)
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

// scorer computes one candidate's exact score, or prunes it against tau (-1
// while the candidate heap is not full: nothing prunes yet), and reports the
// comparisons it made (Stats.Comparisons). Implementations are pointer-shaped,
// so holding one in the interface allocates nothing, and are confined to a
// single worker.
type scorer interface {
	score(o int, tau int) (score int, how scoreResult, comparisons int64)
}

// ubbScorer scores candidates exhaustively (Algorithm 2 has no per-object
// pruning beyond Heuristic 1, which the loop applies at the queue level).
type ubbScorer struct{ ds *data.Dataset }

func (u ubbScorer) score(o, tau int) (int, scoreResult, int64) {
	return Score(u.ds, o), scored, int64(u.ds.Len() - 1)
}

// runQueue is the one fork: it walks queue (nil builds one) with one scorer
// per worker from newScorer — at most one worker is the serial loop, more the
// batch-windowed engine; workers follows clampWorkers. The answer is the
// serial loop's either way.
func runQueue(ds *data.Dataset, k int, queue *MaxScoreQueue, workers int, newScorer func() scorer, sp *obs.Span) (Result, Stats) {
	if queue == nil {
		queue = BuildMaxScoreQueue(ds)
	}
	workers = clampWorkers(workers, len(queue.Order))
	if workers <= 1 {
		return serialRun(ds, k, queue, newScorer(), sp)
	}
	scorers := make([]scorer, workers)
	for w := range scorers {
		scorers[w] = newScorer()
	}
	return engineRun(ds, k, queue, scorers, sp)
}

// serialRun is the main loop of Algorithms 2 and 4: candidates in queue
// order, Heuristic 1's early stop, s's score offered to the candidate heap.
// It is the paper's algorithm and the reference engineRun replays. sp, when
// non-nil, receives τ trajectory samples at WindowSize granularity — the
// engine's sampling points, so explain output reads the same whichever path
// served the query; a nil sp costs one branch per candidate.
func serialRun(ds *data.Dataset, k int, queue *MaxScoreQueue, s scorer, sp *obs.Span) (Result, Stats) {
	var st Stats
	sc := newCandidateHeap(k)
	pos := 0
	for p, idx := range queue.Order {
		pos = p
		tau := sc.tau()
		if sp != nil && pos%WindowSize == 0 {
			sp.SampleTau(pos, tau)
		}
		if tau >= 0 && queue.MaxScore[idx] <= tau {
			st.PrunedH1 += len(queue.Order) - pos // Heuristic 1: early stop
			break
		}
		st.Candidates++
		score, how, cmp := s.score(int(idx), tau)
		st.Comparisons += cmp
		switch how {
		case prunedH2:
			st.PrunedH2++
			continue
		case prunedH3:
			st.PrunedH3++
			continue
		}
		st.Scored++
		sc.offer(Item{Index: int(idx), ID: ds.Obj(int(idx)).ID, Score: score})
	}
	if sp != nil {
		sp.SampleTau(pos, sc.tau())
	}
	return sc.result(), st
}

// fullScan is a queue over order whose bounds no score reaches (a score is at
// most N − 1), so Heuristic 1 never trips and every candidate is scored, in
// order — how Naive's rows and ESB's survivors ride the engine.
func fullScan(ds *data.Dataset, order []int32) *MaxScoreQueue {
	n := ds.Len()
	queue := &MaxScoreQueue{Order: order, MaxScore: make([]int, n)}
	for i := range queue.MaxScore {
		queue.MaxScore[i] = n
	}
	return queue
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
	comparisons := make([]int64, workers) // one per worker, summed at the end
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
				var walked int64
				for {
					i := int(next.Add(1)) - 1
					if i >= end {
						comparisons[w] += walked
						return
					}
					t := fr.Tau()
					if t >= 0 && queue.MaxScore[order[i]] <= t {
						// Worker-side Heuristic 1: the serial loop would
						// have stopped at or before this candidate.
						commit(start, end, i, slot{how: skippedH1, done: true})
						continue
					}
					got, how, cmp := s.score(int(order[i]), t)
					walked += cmp
					commit(start, end, i, slot{score: got, how: how, done: true})
				}
			}(w)
		}
		wg.Wait()
	}
	if sp != nil {
		sp.SampleTau(fr.Pos(), sc.tau())
	}
	for _, c := range comparisons {
		st.Comparisons += c
	}
	return sc.result(), st
}

// NaiveWorkers is the exhaustive baseline across a worker pool, built on the
// batch-windowed engine: every object is scored, windows walk the dataset in
// index order, and the in-order merge makes the answer byte-identical to
// Naive's, rank-k tie-breaks included.
func NaiveWorkers(ds *data.Dataset, k int, workers int) (Result, Stats) {
	if clampWorkers(workers, ds.Len()) <= 1 {
		return Naive(ds, k)
	}
	order := make([]int32, ds.Len())
	for i := range order {
		order[i] = int32(i)
	}
	return runQueue(ds, k, fullScan(ds, order), workers, func() scorer { return ubbScorer{ds: ds} }, nil)
}
