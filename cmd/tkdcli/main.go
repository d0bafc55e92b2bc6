// Command tkdcli answers top-k dominating queries over incomplete CSV data.
//
// The input format is the one datagen emits: a header "id,v1,...,vd" and one
// row per object with "-" (or empty) marking missing values. Smaller values
// are considered better; pass -negate for rating-style data.
//
// Usage:
//
//	tkdcli -k 5 -alg IBIG data.csv
//	tkdcli -k 5 -alg IBIG -workers 0 data.csv      # parallel scoring
//	datagen -dist nba | tkdcli -k 10 -alg UBB -stats -negate=false -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tkdcli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		k       = fs.Int("k", 10, "number of answers")
		algStr  = fs.String("alg", "IBIG", "algorithm: Naive, ESB, UBB, BIG, IBIG")
		stats   = fs.Bool("stats", false, "print pruning statistics (comparisons = rows compared: for BIG/IBIG only those tying a bin of the candidate that holds several values; what a candidate dominates is counted by popcount, not compared)")
		negate  = fs.Bool("negate", false, "negate values (use when larger is better)")
		bins    = fs.Int("bins", 0, "bins per dimension for IBIG (0 = twice the Eq. 8 optimum, at most one per distinct value)")
		workers = fs.Int("workers", 1, "parallel scoring goroutines (1 = serial, 0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tkdcli [flags] <data.csv | ->")
		fs.PrintDefaults()
		return 2
	}

	alg, err := core.ParseAlgorithm(*algStr)
	if err != nil {
		fmt.Fprintln(stderr, "tkdcli:", err)
		return 2
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "tkdcli: -workers must be >= 0, got %d\n", *workers)
		return 2
	}

	var ds *data.Dataset
	if name := fs.Arg(0); name == "-" {
		ds, err = data.ReadCSV(stdin)
	} else {
		var b []byte
		if b, err = os.ReadFile(name); err == nil {
			ds, err = data.ParseCSV(b)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "tkdcli:", err)
		return 1
	}
	if *negate {
		ds.Negate()
	}

	var binSpec []int
	if *bins > 0 {
		binSpec = []int{*bins}
	}
	prepStart := time.Now()
	pre := core.Preprocess(ds, binSpec)
	prepTime := time.Since(prepStart)

	queryStart := time.Now()
	res, st := core.RunWorkers(alg, ds, *k, pre, *workers)
	queryTime := time.Since(queryStart)

	fmt.Fprintf(stdout, "# %s on %d objects x %d dims (missing rate %.1f%%)\n",
		alg, ds.Len(), ds.Dim(), 100*ds.MissingRate())
	fmt.Fprintf(stdout, "# preprocessing %.3fs, query %.3fs\n", prepTime.Seconds(), queryTime.Seconds())
	fmt.Fprintln(stdout, "rank,id,score")
	for i, it := range res.Items {
		fmt.Fprintf(stdout, "%d,%s,%d\n", i+1, it.ID, it.Score)
	}
	if *stats {
		fmt.Fprintf(stdout, "# candidates=%d scored=%d prunedH1=%d prunedH2=%d prunedH3=%d skyband=%d comparisons=%d\n",
			st.Candidates, st.Scored, st.PrunedH1, st.PrunedH2, st.PrunedH3, st.PrunedSkyband, st.Comparisons)
	}
	return 0
}
