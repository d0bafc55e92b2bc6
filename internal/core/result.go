package core

import (
	"container/heap"
	"sort"

	"repro/internal/data"
)

// Item is one answer object of a TKD query.
type Item struct {
	Index int    // position in the dataset
	ID    string // object identifier
	Score int    // score(o), Definition 2
}

// Result is the answer set SG of a TKD query, sorted by descending score
// (ties by ascending dataset index — the paper breaks ties arbitrarily).
type Result struct {
	Items []Item
}

// Scores returns the multiset of answer scores in descending order. Because
// rank-k ties are broken arbitrarily, cross-algorithm tests compare score
// multisets rather than object identities.
func (r Result) Scores() []int {
	out := make([]int, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.Score
	}
	return out
}

// IDs returns the answer object identifiers in rank order.
func (r Result) IDs() []string {
	out := make([]string, len(r.Items))
	for i, it := range r.Items {
		out[i] = it.ID
	}
	return out
}

// Stats reports the work a query run performed; the per-heuristic pruning
// counters feed the Fig. 18 experiment. The counts are exclusive, exactly as
// the paper plots them: an object pruned by Heuristic 1 is not recounted
// under Heuristic 2, and so on.
type Stats struct {
	// Candidates is the number of objects entering the scoring phase
	// (|SC| for ESB; the evaluated prefix of the queue for UBB/BIG/IBIG).
	Candidates int
	// Scored is the number of exact score computations completed. BIG and
	// IBIG complete one for every candidate Heuristic 2 lets through whose
	// buckets are all exact — the score is then two popcounts, and comes
	// back exact even when it cannot beat τ — so under a fine bin layout
	// Scored rises where PrunedH3 used to.
	Scored int
	// PrunedH1 counts objects pruned by upper-bound-score pruning
	// (Heuristic 1), including everything cut off by early termination.
	PrunedH1 int
	// PrunedH2 counts objects pruned by bitmap pruning (Heuristic 2): those
	// whose bound |∩Qᵢ| − 1 − |F(o)| cannot beat τ. The bound is net of F(o),
	// the rows sharing no observed dimension with o — members of every Qᵢ that
	// o never dominates — which the paper's |∩Qᵢ| − 1 leaves in; it is the
	// same in the serial loop, the engine's workers and a shard's bounds phase,
	// and a sharded run counts here the candidates its shards' bounds summed
	// to at most τ.
	PrunedH2 int
	// PrunedH3 counts objects pruned by partial-score pruning (Heuristic 3).
	// It can only fire on a candidate with rows to walk: one that sits in a
	// bucket holding more than one value.
	PrunedH3 int
	// PrunedSkyband counts objects discarded by ESB's local-skyband step.
	PrunedSkyband int
	// Comparisons counts pairwise object comparisons — the value-level
	// dominance tests a run performs. Naive, ESB and UBB compare a scored
	// object against every other row. BIG and IBIG count what a candidate
	// dominates by popcount (|∩Q| − |E|, bitmapidx/score.go) without
	// visiting it, so there Comparisons counts only the walked members of W
	// — the rows that tie an inexact bucket of the candidate, classified
	// against the rank table; zero over a value-granular index. IBIGBTree,
	// §4.5's reference, counts the in-bin tree entries it visits instead.
	Comparisons int64
	// Workers is the goroutine count a parallel run used (0 for the serial
	// paths).
	Workers int
	// Windows is the number of batch windows the parallel engine processed.
	Windows int
}

// Add accumulates another query's counters into st — the aggregation the
// serving layer's per-dataset metrics are built on. Workers and Windows are
// summed like the rest; aggregate consumers read them as totals (e.g.
// worker-seconds proxies), not as a single query's configuration.
func (st *Stats) Add(o Stats) {
	st.Candidates += o.Candidates
	st.Scored += o.Scored
	st.PrunedH1 += o.PrunedH1
	st.PrunedH2 += o.PrunedH2
	st.PrunedH3 += o.PrunedH3
	st.PrunedSkyband += o.PrunedSkyband
	st.Comparisons += o.Comparisons
	st.Workers += o.Workers
	st.Windows += o.Windows
}

// candidateHeap is the candidate set SC of Algorithms 2/4: a min-heap of at
// most k items keyed by score, exposing τ (the k-th highest score so far).
type candidateHeap struct {
	items []Item
	k     int
}

func newCandidateHeap(k int) *candidateHeap { return &candidateHeap{k: k} }

func (h *candidateHeap) Len() int           { return len(h.items) }
func (h *candidateHeap) Less(i, j int) bool { return h.items[i].Score < h.items[j].Score }
func (h *candidateHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *candidateHeap) Push(x any) { h.items = append(h.items, x.(Item)) }
func (h *candidateHeap) Pop() any {
	last := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return last
}

// tau returns the paper's τ: the minimum score in SC once |SC| = k, and -1
// before the candidate set fills up.
func (h *candidateHeap) tau() int {
	if len(h.items) < h.k {
		return -1
	}
	return h.items[0].Score
}

// offer inserts the item if SC is not full or the score beats τ.
func (h *candidateHeap) offer(it Item) {
	if len(h.items) < h.k {
		heap.Push(h, it)
		return
	}
	if it.Score > h.items[0].Score {
		h.items[0] = it
		heap.Fix(h, 0)
	}
}

// result drains the heap into a Result.
func (h *candidateHeap) result() Result {
	items := append([]Item(nil), h.items...)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Score != items[j].Score {
			return items[i].Score > items[j].Score
		}
		return items[i].Index < items[j].Index
	})
	return Result{Items: items}
}

// topKOf ranks the provided candidate indices by exact score and returns the
// best k — the filtering step shared by Naive and ESB. The returned stats
// fragment carries the comparison count of the scoring pass.
func topKOf(ds *data.Dataset, candidates []int32, k int, st *Stats) Result {
	h := newCandidateHeap(k)
	for _, c := range candidates {
		st.Scored++
		st.Comparisons += int64(ds.Len() - 1)
		h.offer(Item{Index: int(c), ID: ds.Obj(int(c)).ID, Score: Score(ds, int(c))})
	}
	return h.result()
}
