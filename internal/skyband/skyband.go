// Package skyband computes k-skybands over ESB buckets.
//
// A k-skyband query returns the objects dominated by fewer than k others.
// ESB (§4.1 of the TKD paper) exploits the fact that objects sharing one
// observed-dimension bit vector form a *complete* dataset over those
// dimensions — dominance is transitive inside the bucket — so the local
// k-skyband of every bucket is a sound candidate set for the global TKD
// query (Lemma 1).
package skyband

import (
	"context"

	"repro/internal/data"
)

// DominatesSameMask reports whether object a dominates object b when both
// share the same observed-dimension mask: a <= b on every observed dimension
// with at least one strict inequality. Callers guarantee equal masks.
func DominatesSameMask(a, b *data.Object, mask uint64) bool {
	strict := false
	for d := 0; mask != 0; d, mask = d+1, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		av, bv := a.Values[d], b.Values[d]
		if av > bv {
			return false
		}
		if av < bv {
			strict = true
		}
	}
	return strict
}

// KSkyband returns the subset of ids whose objects are dominated by fewer
// than k objects from ids, preserving input order. All listed objects must
// share the same observed-dimension mask (one ESB bucket). The scan stops
// counting an object's dominators at k, so pruned objects cost at most k
// hits each.
func KSkyband(ds *data.Dataset, ids []int32, k int) []int32 {
	return KSkybandAppend(context.Background(), nil, ds, ids, k)
}

// KSkybandAppend is KSkyband appending into dst (which may be nil or a
// recycled buffer; it is truncated first). The parallel ESB fan-out calls
// this with one per-worker scratch buffer so scanning thousands of buckets
// does not allocate a bucket-capacity slice per bucket. A bucket's scan is
// quadratic, so it checks ctx every checkStride objects and stops early,
// with a partial answer the caller must discard, once ctx is done.
func KSkybandAppend(ctx context.Context, dst []int32, ds *data.Dataset, ids []int32, k int) []int32 {
	if k <= 0 {
		return nil
	}
	if dst == nil {
		dst = make([]int32, 0, len(ids))
	}
	out := dst[:0]
	for i, id := range ids {
		if i%checkStride == 0 && ctx.Err() != nil {
			return out
		}
		o := ds.Obj(int(id))
		dominators := 0
		for _, other := range ids {
			if other == id {
				continue
			}
			if DominatesSameMask(ds.Obj(int(other)), o, o.Mask) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			out = append(out, id)
		}
	}
	return out
}

// checkStride is how many objects KSkybandAppend scans between context checks.
const checkStride = 256

// Skyline returns the 1-skyband: objects dominated by no other object in
// the bucket.
func Skyline(ds *data.Dataset, ids []int32) []int32 {
	return KSkyband(ds, ids, 1)
}
