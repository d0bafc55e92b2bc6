package experiments

import (
	"fmt"
	"time"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
	"repro/internal/compress/concise"
	"repro/internal/compress/wah"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
	"repro/internal/reference"
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
		ix := bitmapidx.Build(nd.ds, bitmapidx.Options{})
		raw := ix.SizeBytes()
		c := compressColumns(ix)
		timeTab.Rows = append(timeTab.Rows, []string{nd.name, seconds(c.wahTime), seconds(c.conciseTime)})
		ratioTab.Rows = append(ratioTab.Rows, []string{
			nd.name,
			fmt.Sprintf("%.3f", float64(c.wah)/float64(raw)),
			fmt.Sprintf("%.3f", float64(c.concise)/float64(raw)),
		})
	}
	return []Table{timeTab, ratioTab}
}

// codecPayload is what the two codecs make of an index: the bytes of its
// columns compressed one by one, as the paper stores them, and the time each
// codec took over all of them.
type codecPayload struct {
	wah, concise         int
	wahTime, conciseTime time.Duration
}

// compressColumns compresses every column of ix with WAH and with CONCISE.
func compressColumns(ix *bitmapidx.Index) (c codecPayload) {
	c.wahTime = measure(func() {
		ix.ForEachColumn(func(v *bitvec.Vector) { c.wah += wah.Compress(v).SizeBytes() })
	})
	c.conciseTime = measure(func() {
		ix.ForEachColumn(func(v *bitvec.Vector) { c.concise += concise.Compress(v).SizeBytes() })
	})
	return c
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

// binPoint is one (dataset, ξ) point of the Fig. 11 sweep: what a bin layout
// costs to build, hold and patch, and what a query over it does.
type binPoint struct {
	query  time.Duration // mean per query over ks
	walked float64       // rows of W classified by rank, per query
	scored float64       // exact scores computed, per query
	bytes  int           // column payload, as sweepPoint's caller measures it
	build  time.Duration // cold build off the shared sort
	patch  time.Duration // AppendRows of the dataset's last patchRows rows
}

// patchRows is the append the sweep times: the served benchmark's batch.
const patchRows = 20

// sweepPoint measures one bin layout; size gives the bytes its index stores.
func sweepPoint(ds *data.Dataset, sorted *data.Sorted, queue *core.MaxScoreQueue, opts bitmapidx.Options, ks []int, size func(*bitmapidx.Index) int) binPoint {
	var pt binPoint
	var ix *bitmapidx.Index
	pt.build = measure(func() { ix = bitmapidx.BuildSorted(sorted, opts) })
	pt.bytes = size(ix)
	pre := &core.Pre{Queue: queue, Binned: ix}
	for _, k := range ks {
		d, st := runAlgo(core.AlgIBIG, ds, k, pre)
		pt.query += d / time.Duration(len(ks))
		pt.walked += float64(st.Comparisons) / float64(len(ks))
		pt.scored += float64(st.Scored) / float64(len(ks))
	}
	if base := ds.Len() - patchRows; base > 0 {
		old := bitmapidx.Build(ds.Slice(0, base), opts)
		pt.patch = measure(func() { bitmapidx.AppendRows(old, ds) })
	}
	return pt
}

var binSweepHeader = []string{"ξ", "IBIG time (s)", "S_IBIG (KB)", "walked", "scored", "build (ms)", "AppendRows (ms)"}

func (pt binPoint) row(label string) []string {
	return []string{
		label, seconds(pt.query), fmt.Sprintf("%d", pt.bytes/1024),
		fmt.Sprintf("%.0f", pt.walked), fmt.Sprintf("%.1f", pt.scored),
		fmt.Sprintf("%.2f", pt.build.Seconds()*1e3), fmt.Sprintf("%.2f", pt.patch.Seconds()*1e3),
	}
}

// servingShape is one dataset of the serving sweep and the rows whose (N, σ)
// its serving index is laid out by: its own, or — for a shard's slice, as
// shard.NewLocal has it — those of the dataset it is a slice of.
type servingShape struct {
	named
	of *data.Dataset
}

func (sh servingShape) eq8() int { return bitmapidx.OptimalBins(sh.of.Len(), sh.of.MissingRate()) }

// servingShapes are the datasets the serving index's bin rule is stated over:
// the three shapes the served benchmark boots (a -shards 3 slice is a third of
// the query-heavy rows), the query-heavy shape over a near-continuous domain,
// where no bucket is exact at any affordable ξ, and the paper's (allDatasets,
// handed in by the caller that has them).
func servingShapes(s Scale, paper []named) []servingShape {
	heavyN, lightN := 100_000, 2000
	if s == Tiny {
		heavyN, lightN = 2000, 400
	}
	syn := func(n, dim, card int) *data.Dataset {
		return gen.Synthetic(gen.Config{N: n, Dim: dim, Cardinality: card, MissingRate: 0.2, Dist: gen.IND, Seed: 1})
	}
	heavy := syn(heavyN, 5, 100)
	shapes := []servingShape{
		{named{"query-heavy, ingest (100k x 5, c 100)", heavy}, heavy},
		{named{"query-sharded slice (a third of it)", heavy.Slice(0, heavy.Len()/3)}, heavy},
	}
	for _, nd := range append([]named{
		{"query-light (2000 x 4, c 40)", syn(lightN, 4, 40)},
		{"100k x 5, c 1000", syn(heavyN, 5, 1000)},
	}, paper...) {
		shapes = append(shapes, servingShape{nd, nd.ds})
	}
	return shapes
}

// servingSweep measures the serving recipe over a shape at ½, 1, 2, 4 and 8
// times its Eq. (8) bins per dimension, in that order.
func servingSweep(sh servingShape) (xis []int, pts []binPoint) {
	ds, eq8 := sh.ds, sh.eq8()
	queue := core.BuildMaxScoreQueue(ds)
	sorted := ds.SortDims()
	for _, xi := range []int{max(1, eq8/2), eq8, 2 * eq8, 4 * eq8, 8 * eq8} {
		xis = append(xis, xi)
		pts = append(pts, sweepPoint(ds, sorted, queue, bitmapidx.Options{Bins: []int{xi}}, ksSweep, (*bitmapidx.Index).SizeBytes))
	}
	return xis, pts
}

// sameLayout reports whether asking a and b bins of every dimension lays ds
// out alike: AssignBins caps each at the dimension's distinct-value count cᵢ,
// so what counts is min(cᵢ, a) against min(cᵢ, b).
func sameLayout(ds *data.Dataset, a, b int) bool {
	for _, st := range ds.Stats() {
		if c := len(st.CountPerValue); min(c, a) != min(c, b) {
			return false
		}
	}
	return true
}

// Fig11 reproduces Fig. 11: for every dataset, TKD CPU time of BIG (fixed)
// and IBIG under increasing bin count ξ, plus the index sizes S_BIG and
// S_IBIG(ξ) — and, past the paper, what each ξ costs to build and patch and
// how many rows a query still walks. The second set of tables is the sweep
// the serving rule ξᵢ = min(cᵢ, 2 · Eq. (8)) is read off (DESIGN.md §1): the
// serving recipe at multiples of Eq. (8), Table 2's k sweep, over the
// benchmark's shapes and the paper's datasets; "(rule)" marks the rows laid
// out as the rule lays the shape out, min(cᵢ, 64) within one kernel block of
// rows. Every query runs over a dense index. S_IBIG is the paper's: the
// binned index's columns in CONCISE (compressColumns); the serving sweep's is
// the dense payload a server holds.
func Fig11(s Scale) []Table {
	var out []Table
	paper := allDatasets(s)
	for _, nd := range paper {
		queue := core.BuildMaxScoreQueue(nd.ds)
		sorted := nd.ds.SortDims()
		big := bitmapidx.BuildSorted(sorted, bitmapidx.Options{})
		bigTime, _ := runAlgo(core.AlgBIG, nd.ds, defaultK, &core.Pre{Queue: queue, Bitmap: big})

		tab := Table{
			Title: fmt.Sprintf("Fig. 11 — %s: TKD cost vs ξ (k=%d, BIG time %ss, S_BIG %dKB; times over the dense index, S_IBIG in CONCISE)",
				nd.name, defaultK, seconds(bigTime), big.SizeBytes()/1024),
			Header: binSweepHeader,
		}
		for _, bins := range fig11Sweeps(nd.name) {
			pt := sweepPoint(nd.ds, sorted, queue, bitmapidx.Options{Bins: bins}, []int{defaultK},
				func(ix *bitmapidx.Index) int { return compressColumns(ix).concise })
			tab.Rows = append(tab.Rows, pt.row(binsLabel(bins)))
		}
		out = append(out, tab)
	}
	for _, sh := range servingShapes(s, paper) {
		tab := Table{
			Title:  fmt.Sprintf("Fig. 11 (serving) — %s: dense index vs ξ, k ∈ %v, Eq. (8) = %d", sh.name, ksSweep, sh.eq8()),
			Header: binSweepHeader,
		}
		xis, pts := servingSweep(sh)
		// A row is the rule's where it lays the shape out as the rule does,
		// whether or not the rule's ξ is on the sweep (ValueGranularBins,
		// within one kernel block of rows, is off it).
		rule := bitmapidx.ServingBins(sh.of.Len(), sh.of.MissingRate())
		for i, pt := range pts {
			label := fmt.Sprintf("%d", xis[i])
			if sameLayout(sh.ds, xis[i], rule) {
				label += " (rule)"
			}
			tab.Rows = append(tab.Rows, pt.row(label))
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
// each index column a whole build, its one sort per dimension included. The
// binned index is the paper's, stored in CONCISE: its dense build plus the
// compression of its columns (compressColumns).
func Table3(s Scale) []Table {
	tab := Table{
		Title:  "Table 3 — preprocessing time (s); the binned index built dense, then its columns compressed in CONCISE",
		Header: []string{"dataset", "MaxScore", "bitmap index", "binned bitmap index"},
	}
	for _, nd := range allDatasets(s) {
		tq := measure(func() { reference.BuildMaxScoreQueueBTree(nd.ds) })
		tBig := measure(func() {
			bitmapidx.Build(nd.ds, bitmapidx.Options{})
		})
		var binned *bitmapidx.Index
		tBinned := measure(func() {
			binned = bitmapidx.Build(nd.ds, bitmapidx.Options{Bins: defaultBins(nd.name)})
		}) + compressColumns(binned).conciseTime
		tab.Rows = append(tab.Rows, []string{nd.name, seconds(tq), seconds(tBig), seconds(tBinned)})
	}
	return []Table{tab}
}
