package reference

import (
	"sort"

	"repro/internal/core"
	"repro/internal/data"
)

// BuildMaxScoreQueueBTree is the paper's §4.2 procedure, kept as the
// reference: one B+-tree per dimension, CountGE per observed cell, a stable
// comparison sort — O(N·lgN), the MaxScore column Table 3 times. Nothing
// that serves queries calls it; the identity tests hold core's builders to
// its output, bounds and order alike.
func BuildMaxScoreQueueBTree(ds *data.Dataset) *core.MaxScoreQueue {
	n, dim := ds.Len(), ds.Dim()
	trees := make([]*Tree, dim)
	missing := make([]int, dim)
	for d := 0; d < dim; d++ {
		trees[d] = NewDefault()
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
	q := &core.MaxScoreQueue{
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
