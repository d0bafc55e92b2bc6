package experiments

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
	"repro/internal/compress/concise"
	"repro/internal/compress/wah"
	"repro/internal/core"
	"repro/internal/data"
)

// defaultBins returns the per-dataset bin layout of §5.1: "we employ IBIG
// with 2, 64, 3000, 32, and 32 bins for MovieLens, NBA, Zillow, IND, and AC
// respectively"; Zillow's five dimensions get 6, 10, 35, ξ=3000, 1000 bins.
func defaultBins(dataset string) []int {
	switch dataset {
	case "MovieLens":
		return []int{2}
	case "NBA":
		return []int{64}
	case "Zillow":
		return []int{6, 10, 35, 3000, 1000}
	default: // IND, AC
		return []int{32}
	}
}

// Fig10 reproduces Fig. 10: compress every column of the value-granular
// bitmap index of each real dataset with WAH and with CONCISE, reporting
// CPU time (a) and compression ratio — compressed size / original size (b).
func Fig10(s Scale) []Table {
	timeTab := Table{
		Title:  "Fig. 10(a) — bitmap compression CPU time (s)",
		Header: []string{"dataset", "WAH", "CONCISE"},
	}
	ratioTab := Table{
		Title:  "Fig. 10(b) — bitmap compression ratio (compressed/original)",
		Header: []string{"dataset", "WAH", "CONCISE"},
	}
	for _, nd := range realDatasets(s) {
		ix := bitmapidx.Build(nd.ds, bitmapidx.Options{Codec: bitmapidx.Raw})
		raw := ix.SizeBytes()

		var wahBytes, concBytes int
		wahTime := measure(func() {
			ix.ForEachDenseColumn(func(v *bitvec.Vector) {
				wahBytes += wah.Compress(v).SizeBytes()
			})
		})
		concTime := measure(func() {
			ix.ForEachDenseColumn(func(v *bitvec.Vector) {
				concBytes += concise.Compress(v).SizeBytes()
			})
		})
		timeTab.Rows = append(timeTab.Rows, []string{nd.name, seconds(wahTime), seconds(concTime)})
		ratioTab.Rows = append(ratioTab.Rows, []string{
			nd.name,
			fmt.Sprintf("%.3f", float64(wahBytes)/float64(raw)),
			fmt.Sprintf("%.3f", float64(concBytes)/float64(raw)),
		})
	}
	return []Table{timeTab, ratioTab}
}

// fig11Sweeps lists the ξ sweep per dataset. Zillow varies only its fourth
// dimension, as in the paper ("there are 6, 10, 35, ξ, and 1000 bins w.r.t.
// the five dimensions").
func fig11Sweeps(dataset string) [][]int {
	switch dataset {
	case "MovieLens":
		return [][]int{{2}, {3}, {4}, {5}}
	case "NBA":
		return [][]int{{8}, {16}, {32}, {64}, {128}}
	case "Zillow":
		return [][]int{
			{6, 10, 35, 500, 1000},
			{6, 10, 35, 1000, 1000},
			{6, 10, 35, 3000, 1000},
			{6, 10, 35, 5000, 1000},
		}
	default: // IND, AC
		return [][]int{{4}, {8}, {16}, {32}, {64}, {128}}
	}
}

func binsLabel(bins []int) string {
	if len(bins) == 1 {
		return fmt.Sprintf("%d", bins[0])
	}
	// Zillow-style: report the varying dimension.
	return fmt.Sprintf("%d", bins[3])
}

// Fig11 reproduces Fig. 11: for every dataset, TKD CPU time of BIG (fixed)
// and IBIG under increasing bin count ξ, plus the index sizes S_BIG and
// S_IBIG(ξ).
func Fig11(s Scale) []Table {
	var out []Table
	for _, nd := range allDatasets(s) {
		queue := core.BuildMaxScoreQueue(nd.ds)
		sorted := nd.ds.SortDims()
		big := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Raw})
		bigTime, _ := runAlgo(core.AlgBIG, nd.ds, defaultK, &core.Pre{Queue: queue, Bitmap: big})

		tab := Table{
			Title: fmt.Sprintf("Fig. 11 — %s: TKD cost vs ξ (k=%d, BIG time %ss, S_BIG %dKB)",
				nd.name, defaultK, seconds(bigTime), big.SizeBytes()/1024),
			Header: []string{"ξ", "IBIG time (s)", "S_IBIG (KB)"},
		}
		for _, bins := range fig11Sweeps(nd.name) {
			binned := bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: bins})
			ibigTime, _ := runAlgo(core.AlgIBIG, nd.ds, defaultK, &core.Pre{Queue: queue, Binned: binned})
			tab.Rows = append(tab.Rows, []string{
				binsLabel(bins), seconds(ibigTime), fmt.Sprintf("%d", binned.SizeBytes()/1024),
			})
		}
		out = append(out, tab)
	}
	return out
}

// Table3 reproduces Table 3: preprocessing seconds for the MaxScore queue,
// the value-granular bitmap index, and the binned bitmap index, on every
// dataset. The MaxScore column times the paper's §4.2 B+-tree procedure —
// the one place outside its identity test that still runs it; the library
// derives the same queue from sorted ranks (core.BuildMaxScoreQueue) — and
// each index column a whole build, its one sort per dimension included.
func Table3(s Scale) []Table {
	tab := Table{
		Title:  "Table 3 — preprocessing time (s)",
		Header: []string{"dataset", "MaxScore", "bitmap index", "binned bitmap index"},
	}
	for _, nd := range allDatasets(s) {
		tq := measure(func() { core.BuildMaxScoreQueueBTree(nd.ds) })
		tBig := measure(func() {
			bitmapidx.Build(nd.ds, bitmapidx.Options{Codec: bitmapidx.Raw})
		})
		tBinned := measure(func() {
			bitmapidx.Build(nd.ds, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: defaultBins(nd.name)})
		})
		tab.Rows = append(tab.Rows, []string{nd.name, seconds(tq), seconds(tBig), seconds(tBinned)})
	}
	return []Table{tab}
}

// ensure data import is used even if providers change.
var _ = data.MaxDim
