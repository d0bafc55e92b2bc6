package skyband

import "repro/internal/data"

// GlobalKSkyband computes the k-skyband over an entire incomplete dataset
// under the Definition-1 dominance relation: the objects dominated by fewer
// than k objects of the whole dataset. This is the kISB operator of Gao et
// al. (Expert Systems with Applications 41(10), 2014), the work the TKD
// paper borrows its local-skyband technique from, and the incomplete-data
// skyline of Khalefa et al. (ICDE 2008) is the k=1 special case.
//
// The algorithm mirrors ESB's two phases: the bucket-local k-skybands form
// a sound candidate set (an object dominated k times inside its own bucket
// is dominated k times globally, by transitivity within the bucket), and a
// verification pass counts each candidate's global dominators with early
// exit at k. Results preserve dataset order.
func GlobalKSkyband(ds *data.Dataset, k int) []int32 {
	if k <= 0 {
		return nil
	}
	candidate := make([]bool, ds.Len())
	for _, ids := range ds.Buckets() {
		for _, id := range KSkyband(ds, ids, k) {
			candidate[id] = true
		}
	}
	var out []int32
	for i := 0; i < ds.Len(); i++ {
		if !candidate[i] {
			continue
		}
		o := ds.Obj(i)
		dominators := 0
		for j := 0; j < ds.Len() && dominators < k; j++ {
			if j != i && ds.Obj(j).Dominates(o) {
				dominators++
			}
		}
		if dominators < k {
			out = append(out, int32(i))
		}
	}
	return out
}
