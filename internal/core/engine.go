package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/obs"
)

// The candidate loop. UBB, BIG and IBIG are one framework (Algorithms 2 and
// 4, §4.4): walk the MaxScore queue in descending bound order, stop on
// Heuristic 1, score each candidate against a monotone threshold τ. Only the
// scoring step differs, so each algorithm is a scorer and the walk exists
// twice — serialRun, the paper's loop, and engineRun, its parallel form —
// with loop choosing between them by worker count. Naive and ESB ride the
// same loop over a walk Heuristic 1 never stops (scanAll).
//
// The candidate heap orders items totally (Result's answer order: score,
// then MaxScore bound, then index), so the answer does not depend on the
// order candidates are offered in. That is what lets the engine be simple.
// It pulls candidates off the queue in batch windows and fans each window
// across a worker pool:
//
//   - every worker owns its scorer (a bitmap cursor and its scratch) — only
//     the dataset and the index are shared, both read-only;
//   - a worker offers each candidate to the heap as soon as it is scored,
//     under a light mutex, and republishes τ through the frontier's live
//     cell, where the other workers read it back;
//   - a worker prunes only a bound strictly below the τ it reads: it checks
//     Heuristic 1 at MaxScore < τ and hands τ − 1 to its scorer, so
//     Heuristics 2 and 3 prune only scores below τ. A candidate that
//     finishes out of queue order can tie the heap minimum and win the tie,
//     so one scoring exactly τ must be offered. τ only rises, so a stale
//     read prunes less, never wrongly;
//   - Heuristic 1's early stop stays the paper's at window granularity: a
//     window starts after the previous one has finished, so every heap
//     member precedes its candidates in queue order, and a candidate whose
//     bound is at most τ loses any tie with them (Frontier.NextWindow).
//
// Which candidates get pruned versus scored-then-rejected depends on timing,
// so the pruning counters in Stats may vary run to run; the answer never
// does. For BIG/IBIG, Comparisons counts the walked members of W — rows tying
// an inexact bucket of a candidate — Heuristic 3 can only fire on a candidate
// that has some, and a candidate whose buckets are all exact is Scored by two
// popcounts whatever τ is: see bigState.score.
//
// The window size is the H1 stop granularity; 256 candidates amortizes the
// fan-out cost while keeping the tail overshoot negligible.

// WindowSize is the number of MaxScore-queue candidates one parallel batch
// window covers.
const WindowSize = 256

// Scorer computes one candidate's exact score, or prunes it when the score
// cannot exceed tau (a negative tau prunes nothing: the candidate heap is not
// full yet), and reports the comparisons it made (Stats.Comparisons). Implementations are pointer-shaped,
// so holding one in the interface allocates nothing, and are confined to a
// single worker. It is exported for the scorers outside this package that
// run through SerialRun: the paper's reference scorers and the in-process
// sharded plan's cross-shard scorer.
type Scorer interface {
	Score(o int, tau int) (score int, how ScoreResult, comparisons int64)
}

// SerialRun walks queue through the serial candidate loop with s scoring,
// the one entry a scorer defined outside this package runs through: the
// paper's reference scorers, and the in-process sharded plan's cross-shard
// scorer. It checks ctx and samples τ into sp (nil is untraced) every
// WindowSize candidates, as serialRun does.
func SerialRun(ctx context.Context, ds *data.Dataset, k int, queue *MaxScoreQueue, s Scorer, sp *obs.Span) (Result, Stats, error) {
	return serialRun(ctx, ds, k, queue, queue.MaxScore, s, sp)
}

// ubbScorer scores candidates exhaustively (Algorithm 2 has no per-object
// pruning beyond Heuristic 1, which the loop applies at the queue level).
type ubbScorer struct{ ds *data.Dataset }

func (u ubbScorer) Score(o, tau int) (int, ScoreResult, int64) {
	return Score(u.ds, o), Scored, int64(u.ds.Len() - 1)
}

// scanAll scores every object of order exhaustively — Naive's rows, ESB's
// survivors — through the candidate loop, over a walk whose bounds no score
// reaches (a score is at most N − 1), so Heuristic 1 never trips. queue only
// supplies the heap's tie order.
func scanAll(ctx context.Context, ds *data.Dataset, k int, queue *MaxScoreQueue, order []int32, workers int) (Result, Stats, error) {
	walk := &MaxScoreQueue{Order: order, MaxScore: make([]int, ds.Len())}
	for i := range walk.MaxScore {
		walk.MaxScore[i] = ds.Len()
	}
	return loop(ctx, ds, k, walk, queue.MaxScore, workers, func() Scorer { return ubbScorer{ds: ds} }, nil)
}

// loop is the one fork: it walks walk with the heap's ties decided by bound —
// at most one worker is the serial loop, more the batch-windowed engine. Both
// check ctx once per WindowSize candidates and return its error, with the
// Stats of the work done, when it is cancelled. A scorer that holds pooled
// scratch (a bitmap cursor) hands it back when the run ends.
func loop(ctx context.Context, ds *data.Dataset, k int, walk *MaxScoreQueue, bound []int, workers int, newScorer func() Scorer, sp *obs.Span) (Result, Stats, error) {
	workers = clampWorkers(workers, len(walk.Order))
	if workers <= 1 {
		s := newScorer()
		defer release(s)
		return serialRun(ctx, ds, k, walk, bound, s, sp)
	}
	scorers := make([]Scorer, workers)
	for w := range scorers {
		scorers[w] = newScorer()
		defer release(scorers[w])
	}
	return engineRun(ctx, ds, k, walk, bound, scorers, sp)
}

// release hands back s's pooled scratch, if it holds any.
func release(s Scorer) {
	if r, ok := s.(interface{ Release() }); ok {
		r.Release()
	}
}

// serialRun is the main loop of Algorithms 2 and 4: candidates in queue
// order, Heuristic 1's early stop, s's score offered to the candidate heap.
// It is the paper's algorithm: every candidate it tests comes after every
// heap member in queue order, so pruning a bound equal to τ is exact. Every
// WindowSize candidates — the engine's window starts, so explain output reads
// the same whichever path served the query — it checks ctx and, when sp is
// non-nil, samples the τ trajectory into it.
func serialRun(ctx context.Context, ds *data.Dataset, k int, queue *MaxScoreQueue, bound []int, s Scorer, sp *obs.Span) (Result, Stats, error) {
	var st Stats
	sc := NewAnswerHeap(k, bound)
	pos := 0
	for p, idx := range queue.Order {
		pos = p
		tau := sc.Tau()
		if pos%WindowSize == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, st, err
			}
			if sp != nil {
				sp.SampleTau(pos, tau)
			}
		}
		if tau >= 0 && queue.MaxScore[idx] <= tau {
			st.PrunedH1 += len(queue.Order) - pos // Heuristic 1: early stop
			break
		}
		st.Candidates++
		score, how, cmp := s.Score(int(idx), tau)
		st.Comparisons += cmp
		switch how {
		case PrunedH2:
			st.PrunedH2++
			continue
		case PrunedH3:
			st.PrunedH3++
			continue
		}
		st.Scored++
		sc.Offer(Item{Index: int(idx), ID: ds.Obj(int(idx)).ID, Score: score})
	}
	if sp != nil {
		sp.SampleTau(pos, sc.Tau())
	}
	return sc.Result(), st, nil
}

// clampWorkers caps a resolved worker count (RunContext states the default
// for workers <= 0): no query needs more workers than it has candidates.
func clampWorkers(workers, candidates int) int {
	if workers > candidates {
		workers = candidates
	}
	return workers
}

// engineRun is the batch-windowed parallel main loop. One scorer per worker;
// len(scorers) is the worker count. ctx is checked before each window, whose
// WindowSize candidates the workers share. sp, when non-nil, receives one τ
// trajectory sample per window — recording happens at window granularity
// (never per candidate), and a nil sp costs one predictable branch per
// window, keeping the hot path allocation-free.
func engineRun(ctx context.Context, ds *data.Dataset, k int, queue *MaxScoreQueue, bound []int, scorers []Scorer, sp *obs.Span) (Result, Stats, error) {
	var st Stats
	st.Workers = len(scorers)
	sc := NewAnswerHeap(k, bound)
	fr := NewFrontier(queue)
	var mu sync.Mutex // guards sc, fr's τ writes and st while workers run
	var next atomic.Int64
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, st, err
		}
		if sp != nil {
			sp.SampleTau(fr.Pos(), fr.Tau())
		}
		_, window, pruned, ok := fr.NextWindow(WindowSize)
		if !ok {
			// Heuristic 1 at window granularity: the queue is sorted by
			// descending bound, so nothing after the cut can enter the
			// answer (Frontier.NextWindow).
			st.PrunedH1 += pruned
			break
		}
		st.Windows++
		next.Store(0)
		work := func(s Scorer) {
			var ws Stats
			for {
				i := int(next.Add(1)) - 1
				if i >= len(window) {
					break
				}
				o := int(window[i])
				t := fr.Tau()
				if t >= 0 && queue.MaxScore[o] < t {
					ws.PrunedH1++ // worker-side Heuristic 1
					continue
				}
				ws.Candidates++
				score, how, cmp := s.Score(o, t-1)
				ws.Comparisons += cmp
				switch how {
				case PrunedH2:
					ws.PrunedH2++
					continue
				case PrunedH3:
					ws.PrunedH3++
					continue
				}
				ws.Scored++
				it := Item{Index: o, ID: ds.Obj(o).ID, Score: score}
				mu.Lock()
				sc.Offer(it)
				fr.SetTau(sc.Tau())
				mu.Unlock()
			}
			mu.Lock()
			st.Add(ws)
			mu.Unlock()
		}
		var wg sync.WaitGroup
		for i, s := range scorers {
			if i == len(scorers)-1 {
				work(s) // this goroutine would only wait: the last worker is its own
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(s)
			}()
		}
		wg.Wait()
	}
	if sp != nil {
		sp.SampleTau(fr.Pos(), sc.Tau())
	}
	return sc.Result(), st, nil
}
