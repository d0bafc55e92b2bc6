package experiments

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/reference"
	"repro/internal/skyband"
)

// Ablation is not a paper artifact: it isolates three design choices — the
// Q−P refinement strategy of §4.5 (direct value comparison vs B+-tree bin
// scanning), the column-store codec (raw vs CONCISE; WAH is compared on
// size and compression time in Fig. 10, not served) and ESB's candidate set
// (a k-skyband per missing-pattern bucket vs the exact global k-skyband) —
// on the default synthetic workloads.
func Ablation(s Scale) []Table {
	var out []Table
	for _, nd := range syntheticPair(s, nil) {
		queue := core.BuildMaxScoreQueue(nd.ds)
		trees := reference.BuildDimTrees(nd.ds)
		sorted := nd.ds.SortDims()
		bins := defaultBins(nd.name)

		refineTab := Table{
			Title:  fmt.Sprintf("Ablation — %s: IBIG Q−P refinement strategy (k=%d)", nd.name, defaultK),
			Header: []string{"refinement", "time (s)", "comparisons"},
		}
		binned := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: bins})
		dDirect, stDirect := runAlgo(core.AlgIBIG, nd.ds, defaultK, &core.Pre{Queue: queue, Binned: binned})
		dTree := measure(func() {
			_, _ = reference.IBIGBTree(nd.ds, defaultK, binned, queue, trees)
		})
		_, stTree := reference.IBIGBTree(nd.ds, defaultK, binned, queue, trees)
		refineTab.Rows = append(refineTab.Rows,
			[]string{"direct", seconds(dDirect), fmt.Sprintf("%d", stDirect.Comparisons)},
			[]string{"btree", seconds(dTree), fmt.Sprintf("%d", stTree.Comparisons)},
		)
		out = append(out, refineTab)

		codecTab := Table{
			Title:  fmt.Sprintf("Ablation — %s: column-store codec for the binned index (k=%d)", nd.name, defaultK),
			Header: []string{"codec", "time (s)", "index (KB)"},
		}
		for _, codec := range []bitmapidx.Codec{bitmapidx.Raw, bitmapidx.Concise} {
			ix := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: codec, Bins: bins})
			d, _ := runAlgo(core.AlgIBIG, nd.ds, defaultK, &core.Pre{Queue: queue, Binned: ix})
			codecTab.Rows = append(codecTab.Rows,
				[]string{codec.String(), seconds(d), fmt.Sprintf("%d", ix.SizeBytes()/1024)})
		}
		out = append(out, codecTab)

		skyTab := Table{
			Title:  fmt.Sprintf("Ablation — %s: ESB's local per-bucket k-skybands vs the global k-skyband (k=%d)", nd.name, defaultK),
			Header: []string{"candidate set", "time (s)", "candidates"},
		}
		var local int
		dLocal := measure(func() {
			for _, ids := range nd.ds.Buckets() {
				local += len(skyband.KSkyband(nd.ds, ids, defaultK))
			}
		})
		var global []int32
		dGlobal := measure(func() { global = skyband.GlobalKSkyband(nd.ds, defaultK) })
		skyTab.Rows = append(skyTab.Rows,
			[]string{"local per bucket", seconds(dLocal), fmt.Sprintf("%d", local)},
			[]string{"global", seconds(dGlobal), fmt.Sprintf("%d", len(global))},
		)
		out = append(out, skyTab)
	}
	return out
}
