package core

import "sync/atomic"

// Frontier is the resumable window iterator over a MaxScoreQueue: the seam
// both the in-process parallel engine and the cross-process shard
// coordinator drive their main loops through. It owns two pieces of state —
// the queue position (advanced window by window, resumable across calls)
// and a live τ cell that any party may update externally (the engine's
// workers after every heap offer; a shard coordinator after every gather) —
// and applies Heuristic 1 at window granularity: the queue is sorted by
// descending MaxScore bound, so once the window's first bound is at most τ,
// nothing after it can enter the answer and the iteration ends. A bound equal
// to τ stops it too, because both callers start a window only once every
// earlier one is settled: every heap member then precedes the window in queue
// order, which is the heap's tie order, and wins a tie with it.
//
// τ semantics follow the candidate heap: -1 while the answer set is not
// full (no pruning possible), then the k-th best score so far. τ is
// monotone non-decreasing over a query, so a stale read is only ever lower
// than the live value and every prune it allows is one the live τ would
// allow too.
type Frontier struct {
	queue *MaxScoreQueue
	pos   int
	tau   atomic.Int64
}

// NewFrontier returns a frontier at the head of the queue with τ = -1.
func NewFrontier(q *MaxScoreQueue) *Frontier {
	f := &Frontier{queue: q}
	f.tau.Store(-1)
	return f
}

// SetTau publishes a new τ. Callers feed it the candidate heap's current
// threshold; the value is stored as given (the heap is the monotonicity
// authority, not the frontier).
func (f *Frontier) SetTau(tau int) { f.tau.Store(int64(tau)) }

// Tau reads the live τ.
func (f *Frontier) Tau() int { return int(f.tau.Load()) }

// Pos reports how many queue positions have been handed out so far — the
// resume point a paused iteration continues from.
func (f *Frontier) Pos() int { return f.pos }

// Queue exposes the underlying queue (bounds and order), read-only.
func (f *Frontier) Queue() *MaxScoreQueue { return f.queue }

// NextWindow returns the next window of at most size candidates as a
// sub-slice of the queue order, together with the window's starting queue
// position. ok is false when the queue is exhausted or Heuristic 1 ends the
// query — pruned then reports how many unvisited candidates the cut
// discarded (0 on plain exhaustion). Not safe for concurrent use; one
// goroutine drives the iteration while any number update τ.
func (f *Frontier) NextWindow(size int) (start int, cands []int32, pruned int, ok bool) {
	order := f.queue.Order
	if f.pos >= len(order) {
		return f.pos, nil, 0, false
	}
	if tau := f.Tau(); tau >= 0 && f.queue.MaxScore[order[f.pos]] <= tau {
		pruned = len(order) - f.pos
		f.pos = len(order)
		return f.pos, nil, pruned, false
	}
	start = f.pos
	end := min(start+size, len(order))
	f.pos = end
	return start, order[start:end], 0, true
}

// AnswerHeap is the candidate set SC of the paper's algorithms exposed for
// external coordinators (the shard scatter-gather loop): a bounded min-heap
// of k items in Result's answer order, with ties decided by the bounds of
// the dataset's MaxScore queue, and τ = the k-th best score so far (-1 while
// not full). It keeps the same k items whatever order they are offered in.
// Not safe for concurrent use.
type AnswerHeap struct{ h *candidateHeap }

// NewAnswerHeap returns an empty heap retaining the best k items of the
// dataset queue was built over.
func NewAnswerHeap(k int, queue *MaxScoreQueue) *AnswerHeap {
	return &AnswerHeap{h: newCandidateHeap(k, queue.MaxScore)}
}

// Offer inserts the item if the heap is not full or the item ranks ahead of
// its minimum.
func (a *AnswerHeap) Offer(it Item) { a.h.offer(it) }

// Tau returns the current threshold: -1 until k items are held, then the
// minimum retained score.
func (a *AnswerHeap) Tau() int { return a.h.tau() }

// Result drains the heap into a Result in answer order.
func (a *AnswerHeap) Result() Result { return a.h.result() }
