package core

import (
	"cmp"
	"slices"
)

// Item is one answer object of a TKD query.
type Item struct {
	Index int    // position in the dataset
	ID    string // object identifier
	Score int    // score(o), Definition 2
}

// Result is the answer set SG of a TKD query in answer order: a higher score
// first, then a larger MaxScore bound, then a smaller dataset index. The paper
// breaks rank-k ties arbitrarily; this order breaks them the way the MaxScore
// queue visits objects, so every algorithm, worker count and shard layout
// returns the same items for one (dataset, k), and a top-k is the first k
// items of any larger top-k.
type Result struct {
	Items []Item
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
	// against the rank table; zero over a value-granular index. IBIGBTree
	// (internal/reference, §4.5) counts the in-bin tree entries it visits instead.
	Comparisons int64
	// Workers is the goroutine count a parallel run used (0 for the serial
	// paths).
	Workers int
	// Windows is the number of batch windows the parallel engine processed.
	Windows int
	// Epoch is the dataset epoch the query ran on. tkd.Dataset.TopK sets it;
	// the runners here leave it 0, and Add leaves it alone.
	Epoch uint64
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

// AnswerHeap is the candidate set SC of Algorithms 2/4: a min-heap of at
// most k items, exposing τ (the k-th highest score so far). It orders items
// totally, in Result's answer order, with bound — every object's MaxScore,
// indexed by dataset position — deciding score ties: so it keeps the same k
// items whatever order they are offered in. It sifts its []Item in place, so
// an offer boxes nothing. The serial and parallel runs keep one, and so does
// the shard coordinator, over its global queue's bounds. Not safe for
// concurrent use.
type AnswerHeap struct {
	items []Item
	k     int
	bound []int
}

// heapPresize caps the items a heap allocates room for up front: a large k
// grows the slice as the heap fills instead.
const heapPresize = 64

// NewAnswerHeap returns an empty heap retaining the best k items, bound being
// the MaxScore of every object of the dataset, by position
// (MaxScoreQueue.MaxScore).
func NewAnswerHeap(k int, bound []int) *AnswerHeap {
	return &AnswerHeap{items: make([]Item, 0, min(k, heapPresize)), k: k, bound: bound}
}

// order compares a and b in the answer order: negative when a ranks first.
func (h *AnswerHeap) order(a, b Item) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	if c := cmp.Compare(h.bound[b.Index], h.bound[a.Index]); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}

// ahead reports whether a ranks before b in the answer order.
func (h *AnswerHeap) ahead(a, b Item) bool { return h.order(a, b) < 0 }

// Tau returns the paper's τ: the minimum score in SC once |SC| = k, and -1
// before the candidate set fills up.
func (h *AnswerHeap) Tau() int {
	if len(h.items) < h.k {
		return -1
	}
	return h.items[0].Score
}

// Offer inserts the item if SC is not full or the item ranks ahead of its
// minimum.
func (h *AnswerHeap) Offer(it Item) {
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return
	}
	if h.ahead(it, h.items[0]) {
		h.items[0] = it
		h.down(0)
	}
}

// up moves item i toward the root while it ranks behind its parent (the root
// is the item furthest behind in answer order).
func (h *AnswerHeap) up(i int) {
	items := h.items
	for i > 0 {
		p := (i - 1) / 2
		if !h.ahead(items[p], items[i]) {
			return
		}
		items[p], items[i] = items[i], items[p]
		i = p
	}
}

// down moves item i toward the leaves while a child ranks behind it.
func (h *AnswerHeap) down(i int) {
	items := h.items
	for {
		c := 2*i + 1
		if c >= len(items) {
			return
		}
		if r := c + 1; r < len(items) && h.ahead(items[c], items[r]) {
			c = r
		}
		if !h.ahead(items[i], items[c]) {
			return
		}
		items[i], items[c] = items[c], items[i]
		i = c
	}
}

// Result returns the heap's items in answer order. It sorts them in place:
// the heap is spent afterwards.
func (h *AnswerHeap) Result() Result {
	slices.SortFunc(h.items, h.order)
	return Result{Items: h.items}
}
