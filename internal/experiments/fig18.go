package experiments

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
)

// Fig18 reproduces Fig. 18: the number of objects pruned by each heuristic
// during an IBIG run as k varies, per dataset. The counts are exclusive, as
// in the paper: Heuristic 2's count excludes objects already pruned by
// Heuristic 1, and Heuristic 3's excludes both.
func Fig18(s Scale) []Table {
	var out []Table
	for _, nd := range allDatasets(s) {
		sorted := nd.ds.SortDims()
		pre := &core.Pre{
			Queue:  core.BuildMaxScoreQueue(nd.ds),
			Binned: bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: defaultBins(nd.name)}),
		}
		tab := Table{
			Title:  fmt.Sprintf("Fig. 18 — %s: objects pruned per heuristic vs k (IBIG)", nd.name),
			Header: []string{"k", "Heuristic 1", "Heuristic 2", "Heuristic 3"},
		}
		for _, k := range ksSweep {
			_, st := runAlgo(core.AlgIBIG, nd.ds, k, pre)
			tab.Rows = append(tab.Rows, []string{
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%d", st.PrunedH1),
				fmt.Sprintf("%d", st.PrunedH2),
				fmt.Sprintf("%d", st.PrunedH3),
			})
		}
		out = append(out, tab)
	}
	return out
}
