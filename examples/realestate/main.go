// Real-estate example: the paper's Zillow workload — find the listings that
// dominate the most others on bedrooms, bathrooms, living area, lot area
// and price, with ~14% of the attributes missing.
//
// Zillow's five attributes have wildly different domain sizes (a handful of
// bedroom counts vs ~10^5 distinct prices), which is exactly the regime
// where the value-granular bitmap index of BIG explodes and IBIG's
// per-dimension binning (§4.4) pays off. The example prints the Eq. (8)
// optimum and the answer under the serving layout the rows pick; the
// space/time sweep over ξ of Fig. 11(c) is
// go run ./cmd/benchrunner -exp fig11.
//
//	go run ./examples/realestate
package main

import (
	"fmt"
	"log/slog"
	"os"

	"repro/tkd"
)

func main() {
	// 20K listings keep the example quick; the layout rule is the same at
	// full scale.
	ds := tkd.SimulateZillow(90210, 20_000)
	fmt.Printf("Zillow-shaped dataset: %d listings x %d attributes, %.1f%% missing\n",
		ds.Len(), ds.Dim(), 100*ds.MissingRate())
	fmt.Printf("Eq. (8) optimal bin count for this dataset: ξ* = %d\n",
		tkd.OptimalBins(ds.Len(), ds.MissingRate()))

	// The layout is a property of the rows: 2 · Eq. (8) bins a dimension,
	// and never more than a dimension has distinct values.
	const k = 8
	res, err := ds.TopK(k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\ntop-%d dominating listings:\n", k)
	for rank, it := range res.Items {
		bedsStr := "? bd"
		if beds, ok := ds.Value(it.Index, 0); ok {
			bedsStr = fmt.Sprintf("%g bd", beds)
		}
		priceStr := "unlisted"
		if price, ok := ds.Value(it.Index, 4); ok {
			priceStr = fmt.Sprintf("$%.0f", price)
		}
		fmt.Printf("  %d. %-7s dominates %5d listings (%s, %s)\n",
			rank+1, it.ID, it.Score, bedsStr, priceStr)
	}
}

// fatal reports err through the structured logger and exits non-zero.
func fatal(err error) {
	slog.Error("example failed", "err", err)
	os.Exit(1)
}
