package reference

import (
	"context"
	"math/bits"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
)

// §4.5's implementation note: IBIG's Q−P refinement through one B+-tree per
// dimension, which locates o's bin boundary and scans only the in-bin keys
// below o[i] (the nonD members) and equal to o[i] (the tagT increments). It
// is one more scorer of core's serial candidate loop (core.SerialRun),
// reached only through IBIGBTree — by the refinement ablation and the
// identity tests.

// BuildDimTrees constructs one B+-tree per dimension over the observed
// values (value → object ids), the preprocessing artifact IBIGBTree
// consumes; pass them in to time the query alone.
func BuildDimTrees(ds *data.Dataset) []*Tree {
	trees := make([]*Tree, ds.Dim())
	for d := range trees {
		trees[d] = NewDefault()
	}
	for i := 0; i < ds.Len(); i++ {
		o := ds.Obj(i)
		for d := 0; d < ds.Dim(); d++ {
			if o.Observed(d) {
				trees[d].Insert(o.Values[d], int32(i))
			}
		}
	}
	return trees
}

// epochTags provides O(1)-reset per-object counters for the B+-tree
// refinement: tag counts value-equalities, mark flags nonD membership.
type epochTags struct {
	tag     []int32
	tagE    []int32
	mark    []int32
	epoch   int32
	touched []int32
}

func newEpochTags(n int) epochTags {
	return epochTags{tag: make([]int32, n), tagE: make([]int32, n), mark: make([]int32, n)}
}

func (e *epochTags) reset() {
	e.epoch++
	e.touched = e.touched[:0]
}

func (e *epochTags) bump(id int32) {
	if e.tagE[id] != e.epoch {
		e.tagE[id] = e.epoch
		e.tag[id] = 0
		e.touched = append(e.touched, id)
	}
	e.tag[id]++
}

func (e *epochTags) count(id int32) int32 {
	if e.tagE[id] != e.epoch {
		return 0
	}
	return e.tag[id]
}

func (e *epochTags) setMark(id int32) bool {
	if e.mark[id] == e.epoch {
		return false
	}
	e.mark[id] = e.epoch
	return true
}

func (e *epochTags) marked(id int32) bool { return e.mark[id] == e.epoch }

// btreeScorer is IBIG-Score with the B+-tree refinement; it owns its cursor,
// the trees it scans and its tagT counters.
type btreeScorer struct {
	ds     *data.Dataset
	ix     *bitmapidx.Index
	cursor *bitmapidx.Cursor
	trees  []*Tree
	tags   epochTags
}

// Score classifies the Q−P rim without touching per-candidate values: for
// every observed dimension of o it scans the B+-tree over [bin start, o[i]] —
// keys strictly below o[i] identify nonD members directly (possible only for
// same-bin smaller values), keys equal to o[i] feed the tagT counters — and
// then the all-common-dims-equal candidates are read off the counters.
// Because F(o) ⊆ P and every comparable member of P is dominated,
// |G(o)| = |P| − |F(o)| needs no iteration at all. Heuristic 2 runs first,
// exactly as in core's bitmap scorer; the comparisons reported are the
// in-bin tree entries visited.
func (s *btreeScorer) Score(o int, tau int) (int, core.ScoreResult, int64) {
	obj := s.ds.Obj(o)
	f := s.cursor.IncomparableRows(obj.Mask)
	full := tau >= 0
	var maxBit int
	if full {
		mb, above := s.cursor.MaxBitScoreAbove(o, tau+f)
		if !above {
			return 0, core.PrunedH2, 0 // Heuristic 2, threshold-aware cascade
		}
		maxBit = mb
	} else {
		maxBit = s.cursor.MaxBitScore(o)
	}
	q, p := s.cursor.QP(o)
	g := p.Count() - f
	rim := maxBit - p.Count() // |Q−P|
	useH3 := full && s.ix.Binned()
	nonDBudget := maxBit - f - tau
	nonD := 0
	var visited int64

	s.tags.reset()
	for d := 0; d < s.ds.Dim(); d++ {
		if !obj.Observed(d) {
			continue
		}
		b := s.ix.Bucket(o, d)
		lo := s.ix.BucketMinValue(d, b)
		ov := obj.Values[d]
		pruned := false
		s.trees[d].AscendRange(lo, ov, func(key float64, ids []int32) bool {
			if key < ov {
				for _, id := range ids {
					visited++
					if q.Get(int(id)) && !p.Get(int(id)) && s.tags.setMark(id) {
						nonD++
						if useH3 && nonD > nonDBudget {
							pruned = true
							return false
						}
					}
				}
				return true
			}
			// key == ov: tagT increments for Q−P members.
			for _, id := range ids {
				if int(id) != o && q.Get(int(id)) && !p.Get(int(id)) {
					visited++
					s.tags.bump(id)
				}
			}
			return true
		})
		if pruned {
			return 0, core.PrunedH3, visited
		}
	}
	// All-equal candidates: tagT == |bp & bo|.
	for _, id := range s.tags.touched {
		if s.tags.marked(id) {
			continue
		}
		po := s.ds.Obj(int(id))
		if s.tags.count(id) == int32(bits.OnesCount64(po.Mask&obj.Mask)) {
			nonD++
			if useH3 && nonD > nonDBudget {
				return 0, core.PrunedH3, visited
			}
		}
	}
	return g + rim - nonD, core.Scored, visited
}

// IBIGBTree is serial IBIG with the B+-tree-backed Q−P refinement of §4.5.
// queue and trees may be nil, in which case they are built on the fly (pass
// pre-built ones to measure pure query time, as the experiments do).
func IBIGBTree(ds *data.Dataset, k int, ix *bitmapidx.Index, queue *core.MaxScoreQueue, trees []*Tree) (core.Result, core.Stats) {
	if trees == nil {
		trees = BuildDimTrees(ds)
	}
	if queue == nil {
		queue = core.BuildMaxScoreQueue(ds)
	}
	s := &btreeScorer{ds: ds, ix: ix, cursor: ix.NewCursor(), trees: trees, tags: newEpochTags(ds.Len())}
	res, st, _ := core.SerialRun(context.Background(), ds, k, queue, s, nil) // never cancelled
	return res, st
}
