package core

import (
	"sort"

	"repro/internal/bitmapidx"
	"repro/internal/btree"
	"repro/internal/data"
)

// MaxScoreQueue is the paper's priority queue F: every object of the
// dataset sorted in descending order of its MaxScore upper bound (Lemma 2).
// It is a preprocessing artifact — Table 3 measures its construction time —
// shared by the UBB, BIG and IBIG algorithms. The paper builds it with one
// B+-tree per dimension (BuildMaxScoreQueueBTree, the reference); everything
// that serves builds the identical queue from sorted stats and ranks
// (queueFromRanks).
type MaxScoreQueue struct {
	// Order lists object indices by descending MaxScore (ties by index).
	Order []int32
	// MaxScore[i] is the bound of object i (indexed by dataset position).
	MaxScore []int
}

// BuildMaxScoreQueue computes the queue straight from the dataset: one sort
// per dimension (data.Dataset.SortDims) for the stats and the rank table,
// then the same suffix sum and counting sort BuildMaxScoreQueueFromIndex
// runs. It is what a queue asked for with no index around costs — UBB alone,
// the shard coordinator's global queue.
func BuildMaxScoreQueue(ds *data.Dataset) *MaxScoreQueue {
	s := ds.SortDims()
	return queueFromRanks(ds.Len(), s.Stats, s.Ranks)
}

// BuildMaxScoreQueueFromIndex computes the queue from an existing bitmap
// index, which already holds the sorted per-dimension stats and every
// object's value rank: the cold build makes its index first and takes the
// queue from it, and the incremental publish path (bitmapidx.AppendRows)
// refreshes the queue this way in O(N·d). O(N·d) is as far as it goes: one
// appended row raises |Ti(o)| for every o it can be dominated by, so every
// bound may move on every publish.
func BuildMaxScoreQueueFromIndex(ix *bitmapidx.Index) *MaxScoreQueue {
	return queueFromRanks(ix.Dataset().Len(), ix.Stats(), ix.Ranks())
}

// queueFromRanks is the one queue builder. Lemma 2: with Ti(o) = {p ≠ o :
// o[i] ≤ p[i]} ∪ Si when dimension i is observed (Si = objects missing
// dimension i) and Ti(o) = S otherwise, MaxScore(o) = min_i |Ti(o)| — and
// |Ti(o)| falls out of a suffix sum over CountPerValue,
//
//	|Ti(o)| = Σ_{r ≥ rank(o,i)} N_ir − 1 + |Si|,
//
// which equals the B+-tree's CountGE(o[i]) − 1 + |Si| exactly. ranks is the
// flat value-rank table (stride len(stats), −1 when missing) of n objects.
func queueFromRanks(n int, stats []data.DimStats, ranks []int32) *MaxScoreQueue {
	dim := len(stats)
	// bound[d][r+1] = |Ti(o)| for an object of value rank r in dimension d:
	// the number of objects with rank ≥ r, minus o itself, plus |Si|. Slot 0
	// answers rank −1 (unobserved: |Ti| = |S|), so the walk below looks up
	// and takes a minimum without branching on data that is random by design.
	bound := make([][]int32, dim)
	for d := range bound {
		counts := stats[d].CountPerValue
		b := make([]int32, len(counts)+1)
		b[0] = int32(n)
		acc := stats[d].MissingCount - 1
		for r := len(counts) - 1; r >= 0; r-- {
			acc += counts[r]
			b[r+1] = int32(acc)
		}
		bound[d] = b
	}
	q := &MaxScoreQueue{
		Order:    make([]int32, n),
		MaxScore: make([]int, n),
	}
	// The queue order (MaxScore descending, ties by ascending index) is a
	// total order over bounds that live in [0, n], so a counting sort
	// reproduces the comparison sort's exact permutation in O(N). One walk of
	// the flat rank table takes every object's bound; the tally runs as its
	// own loop (fused into the walk, its scattered read-modify-writes stall
	// the walk's loads: 2.5 ms against 0.8 ms for the two loops at
	// 100 k × 5); pos[s] then becomes the first queue slot of bound n−s.
	for i := 0; i < n; i++ {
		best := int32(n)
		for d, r := range ranks[i*dim : (i+1)*dim] {
			best = min(best, bound[d][r+1])
		}
		q.MaxScore[i] = int(best)
	}
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

// BuildMaxScoreQueueBTree is the paper's §4.2 procedure, kept as the
// reference: one B+-tree per dimension, CountGE per observed cell, a stable
// comparison sort — O(N·lgN), the MaxScore column Table 3 times. Nothing
// that serves queries calls it; the identity test holds the builders above
// to its output, bounds and order alike.
func BuildMaxScoreQueueBTree(ds *data.Dataset) *MaxScoreQueue {
	n, dim := ds.Len(), ds.Dim()
	trees := make([]*btree.Tree, dim)
	missing := make([]int, dim)
	for d := 0; d < dim; d++ {
		trees[d] = btree.NewDefault()
	}
	for i := 0; i < n; i++ {
		o := ds.Obj(i)
		for d := 0; d < dim; d++ {
			if o.Observed(d) {
				trees[d].Insert(o.Values[d], int32(i))
			} else {
				missing[d]++
			}
		}
	}
	q := &MaxScoreQueue{
		Order:    make([]int32, n),
		MaxScore: make([]int, n),
	}
	for i := 0; i < n; i++ {
		o := ds.Obj(i)
		best := n // |Ti| = |S| for unobserved dimensions
		for d := 0; d < dim && best > 0; d++ {
			if !o.Observed(d) {
				continue
			}
			// CountGE includes o itself; exclude it, then add |Si|.
			ti := trees[d].CountGE(o.Values[d]) - 1 + missing[d]
			if ti < best {
				best = ti
			}
		}
		q.MaxScore[i] = best
		q.Order[i] = int32(i)
	}
	sort.SliceStable(q.Order, func(a, b int) bool {
		ia, ib := q.Order[a], q.Order[b]
		if q.MaxScore[ia] != q.MaxScore[ib] {
			return q.MaxScore[ia] > q.MaxScore[ib]
		}
		return ia < ib
	})
	return q
}

// OptimalBins evaluates the paper's Eq. (8): the bin count ξ minimizing the
// space×time product for n objects at missing rate sigma. The formula lives
// in bitmapidx (so Build can default to it); this re-export keeps the core
// API stable.
func OptimalBins(n int, sigma float64) int { return bitmapidx.OptimalBins(n, sigma) }
