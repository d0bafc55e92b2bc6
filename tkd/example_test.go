package tkd_test

import (
	"fmt"

	"repro/tkd"
)

// Example runs a top-1 dominating query on the paper's §1 movie scenario:
// four movies, five audiences, most ratings missing. The Godfather (m2)
// wins — one shared audience rates it above every rival and none rates it
// below.
func Example() {
	M := tkd.Missing
	movies := tkd.NewDataset(5)
	movies.Append("Schindler's List", M, M, 3, 4, 2)
	movies.Append("The Godfather", 5, 3, 4, M, M)
	movies.Append("The Silence of the Lambs", M, 2, 1, 5, 3)
	movies.Append("Star Wars", 3, 1, 5, 4, 4)
	movies.Negate() // ratings: larger is better

	res, _ := movies.TopK(1)
	fmt.Printf("%s dominates %d movies\n", res.Items[0].ID, res.Items[0].Score)
	// Output: The Godfather dominates 2 movies
}

// ExampleDataset_TopK answers a T2D query on the paper's Fig. 3 running
// example with the default algorithm (IBIG) and prints both answers. They tie
// at 16, so they come in MaxScore queue order: C2, the queue's head, first —
// the order Example 2 evaluates them in.
func ExampleDataset_TopK() {
	M := tkd.Missing
	ds := tkd.NewDataset(4)
	rows := map[string][]float64{
		"A1": {M, 3, 1, 3}, "A2": {M, 1, 2, 1}, "A3": {M, 1, 3, 4},
		"A4": {M, 7, 4, 5}, "A5": {M, 4, 8, 3}, "B1": {M, M, 1, 2},
		"B2": {M, M, 3, 1}, "B3": {M, M, 4, 9}, "B4": {M, M, 3, 7},
		"B5": {M, M, 7, 4}, "C1": {2, M, M, 3}, "C2": {2, M, M, 1},
		"C3": {3, M, M, 2}, "C4": {3, M, M, 3}, "C5": {3, M, M, 4},
		"D1": {3, 5, M, 2}, "D2": {2, 1, M, 4}, "D3": {2, 4, M, 1},
		"D4": {4, 4, M, 5}, "D5": {5, 5, M, 4},
	}
	// Insert in a fixed order so the example output is deterministic.
	for _, id := range []string{
		"A1", "A2", "A3", "A4", "A5", "B1", "B2", "B3", "B4", "B5",
		"C1", "C2", "C3", "C4", "C5", "D1", "D2", "D3", "D4", "D5",
	} {
		ds.Append(id, rows[id]...)
	}

	res, _ := ds.TopK(2)
	for _, it := range res.Items {
		fmt.Printf("%s: %d\n", it.ID, it.Score)
	}
	// Output:
	// C2: 16
	// A2: 16
}

// ExampleDataset_Dominates shows that dominance on incomplete data is
// decided on common observed dimensions only and is not symmetric.
func ExampleDataset_Dominates() {
	M := tkd.Missing
	ds := tkd.NewDataset(2)
	ds.Append("f", 4, 2)
	ds.Append("c", 5, M)
	ds.Append("e", M, 4)

	fmt.Println(ds.Dominates(0, 1)) // f vs c: 4 < 5 on the only common dim
	fmt.Println(ds.Dominates(1, 2)) // c vs e: no common observed dimension
	// Output:
	// true
	// false
}

// ExampleDataset_Skyline computes the incomplete-data skyline (the objects
// nothing dominates) of a small dataset.
func ExampleDataset_Skyline() {
	// Note how aggressive incomplete-data dominance is: "unknown-speed"
	// competes only on price, loses that single common dimension to
	// "cheap-slow", and drops out — its unrated speed cannot save it.
	M := tkd.Missing
	ds := tkd.NewDataset(2)
	ds.Append("cheap-slow", 1, 9)
	ds.Append("fast-dear", 9, 1)
	ds.Append("balanced", 4, 4)
	ds.Append("bad", 9, 9)
	ds.Append("unknown-speed", 9, M)

	for _, i := range ds.Skyline() {
		fmt.Println(ds.ID(i))
	}
	// Output:
	// cheap-slow
	// fast-dear
	// balanced
}
