package core

import (
	"repro/internal/bitmapidx"
	"repro/internal/data"
)

// MaxScoreQueue is the paper's priority queue F: every object of the
// dataset sorted in descending order of its MaxScore upper bound (Lemma 2).
// It is a preprocessing artifact — Table 3 measures its construction time —
// shared by the UBB, BIG and IBIG algorithms. The paper builds it with one
// B+-tree per dimension (internal/reference keeps that procedure as the
// oracle); this package builds the identical queue from sorted stats and
// ranks (QueueFromRuns).
type MaxScoreQueue struct {
	// Order lists object indices by descending MaxScore (ties by index).
	Order []int32
	// MaxScore[i] is the bound of object i (indexed by dataset position).
	MaxScore []int
}

// BuildMaxScoreQueue computes the queue straight from the dataset: one sort
// per dimension (data.Dataset.SortDims) for the stats and the rank table,
// then the same suffix sum and counting sort BuildMaxScoreQueueFromIndex
// runs. It is what a queue asked for with no index around costs — UBB alone.
func BuildMaxScoreQueue(ds *data.Dataset) *MaxScoreQueue {
	s := ds.SortDims()
	return QueueFromRuns([]QueueRun{{Stats: s.Stats, Ranks: s.Ranks}})
}

// BuildMaxScoreQueueFromIndex computes the queue from an existing bitmap
// index, which already holds the sorted per-dimension stats and every
// object's value rank: the cold build makes its index first and takes the
// queue from it, and the incremental publish path (bitmapidx.AppendRows)
// refreshes the queue this way in O(N·d). O(N·d) is as far as it goes: one
// appended row raises |Ti(o)| for every o it can be dominated by, so every
// bound may move on every publish.
func BuildMaxScoreQueueFromIndex(ix *bitmapidx.Index) *MaxScoreQueue {
	return QueueFromRuns([]QueueRun{{Stats: ix.Stats(), Ranks: ix.Ranks()}})
}

// A QueueRun is one row slice's share of the queue's input, as a sort of the
// slice leaves it (data.Sorted) and every index built off that sort keeps it
// (bitmapidx.Index.Stats and Ranks): the per-dimension stats of the slice's
// rows and their flat value-rank table, stride len(Stats), −1 when missing.
type QueueRun struct {
	Stats []data.DimStats
	Ranks []int32
}

func (r QueueRun) rows() int { return len(r.Ranks) / len(r.Stats) }

// QueueFromRuns is the one queue builder: the queue of the rows of runs,
// concatenated in order. Lemma 2: with Ti(o) = {p ≠ o : o[i] ≤ p[i]} ∪ Si
// when dimension i is observed (Si = objects missing dimension i) and
// Ti(o) = S otherwise, MaxScore(o) = min_i |Ti(o)| — and |Ti(o)| falls out of
// a suffix sum over CountPerValue,
//
//	|Ti(o)| = Σ_{r ≥ rank(o,i)} N_ir − 1 + |Si|,
//
// which equals the B+-tree's CountGE(o[i]) − 1 + |Si| exactly. One run — a
// whole dataset — is read as it is. Several, the sorted slices of a shard
// set, are merged per dimension (mergedBounds): their Distinct lists are
// walked side by side, counts summed, and each slice's ranks mapped to the
// merged ones, so the walk below looks every cell up through its own slice's
// table of at most cᵢ entries — O(N·d) plus the domains, and no second sort.
func QueueFromRuns(runs []QueueRun) *MaxScoreQueue {
	n := 0
	for _, r := range runs {
		n += r.rows()
	}
	q := &MaxScoreQueue{
		Order:    make([]int32, n),
		MaxScore: make([]int, n),
	}
	switch len(runs) {
	case 0:
	case 1:
		stats := runs[0].Stats
		bound := make([][]int32, len(stats))
		for d := range bound {
			bound[d] = suffixBounds(stats[d].CountPerValue, stats[d].MissingCount, n)
		}
		q.walk(0, runs[0].Ranks, bound)
	default:
		i := 0
		for k, bound := range mergedBounds(runs, n) {
			q.walk(i, runs[k].Ranks, bound)
			i += runs[k].rows()
		}
	}
	// The queue order (MaxScore descending, ties by ascending index) is a
	// total order over bounds that live in [0, n], so a counting sort
	// reproduces the comparison sort's exact permutation in O(N). The tally
	// runs as its own loop (fused into the bound walk, its scattered
	// read-modify-writes stall the walk's loads: 2.5 ms against 0.8 ms for the
	// two loops at 100 k × 5); pos[s] then becomes the first queue slot of
	// bound n−s.
	pos := make([]int32, n+2)
	for _, best := range q.MaxScore {
		pos[n-best+1]++
	}
	for s := 1; s <= n+1; s++ {
		pos[s] += pos[s-1]
	}
	for i, best := range q.MaxScore {
		s := n - best
		q.Order[pos[s]] = int32(i)
		pos[s]++
	}
	return q
}

// walk takes the MaxScore of the rows whose rank table is ranks, the first
// of them object i0, from bound[d][r+1] = |Ti(o)| for an object of value rank
// r in dimension d. Slot 0 answers rank −1 (unobserved: |Ti| = |S|), so the
// walk looks up and takes a minimum without branching on data that is random
// by design.
func (q *MaxScoreQueue) walk(i0 int, ranks []int32, bound [][]int32) {
	dim, n := len(bound), int32(len(q.MaxScore))
	for i := 0; i < len(ranks)/dim; i++ {
		best := n
		for d, r := range ranks[i*dim : (i+1)*dim] {
			best = min(best, bound[d][r+1])
		}
		q.MaxScore[i0+i] = int(best)
	}
}

// suffixBounds is one dimension's bound table over n objects: slot r+1 holds
// the objects of rank ≥ r, minus o itself, plus |Si|; slot 0 holds n.
func suffixBounds(counts []int, missing, n int) []int32 {
	b := make([]int32, len(counts)+1)
	b[0] = int32(n)
	acc := missing - 1
	for r := len(counts) - 1; r >= 0; r-- {
		acc += counts[r]
		b[r+1] = int32(acc)
	}
	return b
}

// mergedBounds returns every run's bound tables over the n rows of all runs:
// out[k][d][r+1] is the bound of rank r of run k's dimension d. Per
// dimension the runs' Distinct lists — each ascending, −0 folded into +0 —
// are merged by repeatedly taking the smallest head: the merged value's count
// is the sum of the runs' counts, and each run's slot of that value first
// records the merged rank, then, once the merged suffix sums exist, the
// bound they give it.
func mergedBounds(runs []QueueRun, n int) [][][]int32 {
	dim := len(runs[0].Stats)
	out := make([][][]int32, len(runs))
	for k := range out {
		out[k] = make([][]int32, dim)
	}
	at := make([]int, len(runs))
	var counts []int
	for d := 0; d < dim; d++ {
		counts = counts[:0]
		missing := 0
		for k, r := range runs {
			at[k] = 0
			missing += r.Stats[d].MissingCount
			out[k][d] = make([]int32, len(r.Stats[d].Distinct)+1)
			out[k][d][0] = int32(n)
		}
		for {
			var low float64
			found := false
			for k, r := range runs {
				if v := r.Stats[d].Distinct; at[k] < len(v) && (!found || v[at[k]] < low) {
					low, found = v[at[k]], true
				}
			}
			if !found {
				break
			}
			count := 0
			for k, r := range runs {
				if st := &r.Stats[d]; at[k] < len(st.Distinct) && st.Distinct[at[k]] == low {
					out[k][d][at[k]+1] = int32(len(counts))
					count += st.CountPerValue[at[k]]
					at[k]++
				}
			}
			counts = append(counts, count)
		}
		merged := suffixBounds(counts, missing, n)
		for k := range runs {
			for r, g := range out[k][d][1:] {
				out[k][d][r+1] = merged[g+1]
			}
		}
	}
	return out
}
