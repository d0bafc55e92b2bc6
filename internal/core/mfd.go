package core

import (
	"fmt"
	"sort"

	"repro/internal/data"
)

// MFD implements the missing-flexible-dominance weighted scoring extension
// sketched in §3 of the paper. Dominance itself is unchanged (Definition 1);
// what changes is the credit a dominance o ≺ p earns:
//
//	W(o, p) = Σ_{i ∈ D1} w_i + λ · Σ_{j ∈ D2} w_j
//
// where D1 holds the dimensions observed in both objects, D2 the dimensions
// observed in exactly one, and dimensions missing from both are ignored. A
// larger accumulated weight means the dominance is supported by more
// evidence; the MFD score of o sums W(o, p) over every p it dominates, which
// is fair to objects with very different numbers of observed attributes.
type MFD struct {
	// Weights is the per-dimension weight vector W; len must equal the
	// dataset dimensionality.
	Weights []float64
	// Lambda is the discount λ ∈ (0, 1) for half-observed dimensions.
	Lambda float64
}

// validate checks the operator against a dataset.
func (m MFD) validate(ds *data.Dataset) error {
	if len(m.Weights) != ds.Dim() {
		return fmt.Errorf("core: MFD has %d weights, dataset has %d dimensions", len(m.Weights), ds.Dim())
	}
	if m.Lambda <= 0 || m.Lambda >= 1 {
		return fmt.Errorf("core: MFD lambda %v outside (0,1)", m.Lambda)
	}
	return nil
}

// PairWeight computes W(o, p).
func (m MFD) PairWeight(o, p *data.Object) float64 {
	both := o.Mask & p.Mask
	one := o.Mask ^ p.Mask
	w := 0.0
	for d := 0; both|one != 0; d, both, one = d+1, both>>1, one>>1 {
		if both&1 != 0 {
			w += m.Weights[d]
		} else if one&1 != 0 {
			w += m.Lambda * m.Weights[d]
		}
	}
	return w
}

// WeightedItem is one answer of an MFD-weighted TKD query.
type WeightedItem struct {
	Index  int
	ID     string
	Weight float64
}

// TopKMFD answers the TKD query under MFD-weighted scoring:
// score_W(o) = Σ_{p : o ≺ p} W(o, p). Scoring is exhaustive — the paper
// leaves the optimized MFD algorithms to future work and so do we; the
// point of this entry is API completeness and a correctness oracle.
func TopKMFD(ds *data.Dataset, k int, m MFD) ([]WeightedItem, error) {
	if err := m.validate(ds); err != nil {
		return nil, err
	}
	items := make([]WeightedItem, 0, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		o := ds.Obj(i)
		w := 0.0
		for j := 0; j < ds.Len(); j++ {
			if i == j {
				continue
			}
			if p := ds.Obj(j); Dominates(o, p) {
				w += m.PairWeight(o, p)
			}
		}
		items = append(items, WeightedItem{Index: i, ID: o.ID, Weight: w})
	}
	sort.Slice(items, func(a, b int) bool {
		if items[a].Weight != items[b].Weight {
			return items[a].Weight > items[b].Weight
		}
		return items[a].Index < items[b].Index
	})
	if k > len(items) {
		k = len(items)
	}
	return items[:k], nil
}
