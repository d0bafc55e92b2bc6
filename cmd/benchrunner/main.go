// Command benchrunner regenerates the paper's evaluation artifacts: every
// table and figure of §5, printed as aligned text or markdown.
//
// Usage:
//
//	benchrunner -exp all            # everything, quick scale
//	benchrunner -exp fig12 -scale full
//	benchrunner -exp table3 -format markdown -o table3.md
//
// Scales: quick (reduced cardinalities, minutes), full (Table 2 sizes,
// Zillow capped at 50K), tiny (smoke test, seconds).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// hostInfo records where a benchmark ran. Parallel speedups are meaningless
// without it: a container pinned to one core shows 1x no matter how good the
// engine is, so every emitted JSON carries the core count and GOMAXPROCS
// alongside the numbers.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Hostname   string `json:"hostname,omitempty"`
}

func currentHost() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if name, err := os.Hostname(); err == nil {
		h.Hostname = name
	}
	return h
}

// benchExperiment is one experiment's results in the JSON report.
type benchExperiment struct {
	Name    string              `json:"name"`
	Paper   string              `json:"paper"`
	Seconds float64             `json:"seconds"`
	Tables  []experiments.Table `json:"tables"`
}

// benchReport is the -json output: host context plus every table produced.
type benchReport struct {
	Host        hostInfo          `json:"host"`
	Scale       string            `json:"scale"`
	Experiments []benchExperiment `json:"experiments"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrunner", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment: all, fig10, fig11, table3, fig12, table4, fig13..fig18, ablation")
		scale   = fs.String("scale", "quick", "scale: quick, full, tiny")
		format  = fs.String("format", "text", "output format: text, markdown")
		out     = fs.String("o", "", "output file (default stdout)")
		list    = fs.Bool("list", false, "list experiments and exit")
		jsonOut = fs.String("json", "", "also write results as JSON with host/runtime info to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, s := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", s.Name, s.Paper)
		}
		return 0
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, "benchrunner:", err)
		return 2
	}

	var specs []experiments.Spec
	if *exp == "all" {
		specs = experiments.All()
	} else {
		spec, ok := experiments.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "benchrunner: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		specs = []experiments.Spec{spec}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "benchrunner:", err)
			return 1
		}
		defer f.Close()
		w = f
	}

	report := benchReport{Host: currentHost(), Scale: sc.String()}
	for _, spec := range specs {
		fmt.Fprintf(stderr, "benchrunner: running %s (%s scale)...\n", spec.Name, sc)
		start := time.Now()
		tables := spec.Run(sc)
		elapsed := time.Since(start)
		fmt.Fprintf(stderr, "benchrunner: %s done in %.1fs\n", spec.Name, elapsed.Seconds())
		report.Experiments = append(report.Experiments, benchExperiment{
			Name:    spec.Name,
			Paper:   spec.Paper,
			Seconds: elapsed.Seconds(),
			Tables:  tables,
		})
		for _, t := range tables {
			if *format == "markdown" {
				t.Markdown(w)
			} else {
				t.Format(w)
			}
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(stderr, "benchrunner:", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "benchrunner:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "benchrunner:", err)
			return 1
		}
		fmt.Fprintf(stderr, "benchrunner: wrote JSON report to %s\n", *jsonOut)
	}
	return 0
}
