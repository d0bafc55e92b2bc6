package experiments

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/impute"
)

// Fig12 reproduces Fig. 12: TKD CPU time on the three real datasets as k
// varies over {4..64}, for all five algorithms (Naive appears only here, as
// in the paper — it is dropped from later figures for being uniformly
// inferior).
func Fig12(s Scale) []Table {
	var out []Table
	for _, nd := range realDatasets(s) {
		sorted := nd.ds.SortDims()
		pre := &core.Pre{
			Queue:  core.BuildMaxScoreQueue(nd.ds),
			Bitmap: bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Raw}),
			Binned: bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: defaultBins(nd.name)}),
		}
		tab := Table{
			Title:  fmt.Sprintf("Fig. 12 — %s: TKD cost (s) vs k", nd.name),
			Header: []string{"k", "Naive", "ESB", "UBB", "BIG", "IBIG"},
		}
		for _, k := range ksSweep {
			row := []string{fmt.Sprintf("%d", k)}
			for _, alg := range core.Algorithms {
				d, _ := runAlgo(alg, nd.ds, k, pre)
				row = append(row, seconds(d))
			}
			tab.Rows = append(tab.Rows, row)
		}
		out = append(out, tab)
	}
	return out
}

// Table4 reproduces Table 4: the Jaccard distance between the TKD answer on
// incomplete NBA data and the answer obtained after missing-value inference
// (matrix factorization with the paper's hyper-parameters), for varying k.
// The paper's reading criterion: every distance below 2/3 means the two
// answers share more than k/2 objects.
func Table4(s Scale) []Table {
	ds := realDatasets(s)[1].ds // NBA
	tab := Table{
		Title:  "Table 4 — Jaccard distance D_J vs k (NBA, factorization inference)",
		Header: []string{"k", "D_J", "< 2/3"},
	}
	completed := impute.Impute(ds, impute.DefaultConfig(42))
	for _, k := range []int{4, 16, 32, 64} {
		a, _ := core.ESB(ds, k)
		b, _ := core.ESB(completed, k)
		dj := impute.JaccardDistance(a.IDs(), b.IDs())
		tab.Rows = append(tab.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.3f", dj),
			fmt.Sprintf("%v", dj < 2.0/3),
		})
	}
	return []Table{tab}
}
