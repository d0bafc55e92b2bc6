// MovieLens example: the paper's motivating scenario (§1) — find the k most
// popular movies in a recommender system where each movie is rated by only
// a handful of audiences (95% of the ratings matrix is missing).
//
// A movie that dominates many others is one that no shared audience rates
// lower and some shared audience rates higher — exactly the paper's argument
// for why TKD beats both skylines (uncontrollable output size) and simple
// averages (ignores who rated what) on this data.
//
//	go run ./examples/movielens
package main

import (
	"fmt"
	"log/slog"
	"os"

	"repro/tkd"
)

func main() {
	// The simulator reproduces the paper's MovieLens shape: 3,700 movies,
	// 60 audiences, ratings 1..5, 95% missing, already converted to the
	// library's smaller-is-better convention.
	ds := tkd.SimulateMovieLens(2016)
	fmt.Printf("MovieLens-shaped dataset: %d movies x %d audiences, %.1f%% missing\n\n",
		ds.Len(), ds.Dim(), 100*ds.MissingRate())

	var st tkd.Stats
	res, err := ds.TopK(10, tkd.WithStats(&st))
	if err != nil {
		fatal(err)
	}
	fmt.Println("top-10 most dominating movies:")
	for rank, it := range res.Items {
		fmt.Printf("  %2d. %-6s dominates %4d movies\n", rank+1, it.ID, it.Score)
	}
	fmt.Printf("\nIBIG work: scored %d of %d movies (H1 pruned %d, H2 %d, H3 %d)\n",
		st.Scored, ds.Len(), st.PrunedH1, st.PrunedH2, st.PrunedH3)

	// Compare against UBB on the same data: on MovieLens the bitmap bound
	// is loose (95% missing), so the gap between UBB and IBIG narrows — the
	// paper's Fig. 18(a) observation.
	var stUBB tkd.Stats
	if _, err := ds.TopK(10, tkd.WithAlgorithm(tkd.UBB), tkd.WithStats(&stUBB)); err != nil {
		fatal(err)
	}
	fmt.Printf("UBB work:  scored %d of %d movies (H1 pruned %d)\n",
		stUBB.Scored, ds.Len(), stUBB.PrunedH1)

	// MFD-weighted variant (§3): discount dominance evidence from
	// half-observed audiences by λ=0.5, weighting all audiences equally.
	weights := make([]float64, ds.Dim())
	for i := range weights {
		weights[i] = 1
	}
	items, err := ds.TopKMFD(5, weights, 0.5)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\ntop-5 under MFD-weighted scoring (λ=0.5):")
	for rank, it := range items {
		fmt.Printf("  %d. %-6s weighted score %.1f\n", rank+1, it.ID, it.Weight)
	}
}

// fatal reports err through the structured logger and exits non-zero.
func fatal(err error) {
	slog.Error("example failed", "err", err)
	os.Exit(1)
}
