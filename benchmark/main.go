// Command benchmark is the repo's served-request benchmark: it boots a real
// tkdserver child process on data generated from -seed, drives it over HTTP
// from two closed-loop connections, checks every answer against an
// in-process oracle and prints every metric by name with its unit. See
// README.md in this directory for the workloads, the metrics and which layer
// each is expected to move.
//
//	go run -C benchmark . -workload query-heavy -seed 1
//	go run -C benchmark . -workload ingest -seed 1 -trace 1
//	go run -C benchmark . -workload query-light -repeat 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// defaultSeconds is the window BENCHMARK.json's run_seconds names.
const defaultSeconds = 15

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: query-heavy, query-light, query-sharded or ingest")
		seed    = flag.Int64("seed", 1, "the only source of data, key order, appended rows and think times (seed 2 is held out for later claims)")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.String("trace", "0", "1 = per-layer run: explain on every query, /metrics scraped, direct calls into each layer timed")
		repeat  = flag.Int("repeat", 1, "run the workload this many times on seeds seed, seed+1, … and print median, quartiles and spread / bound per end-to-end metric")
		record  = flag.String("record", "", "append this invocation's reports to a JSON file (the bench trajectory)")
	)
	flag.Parse()
	traced, err := strconv.ParseBool(*trace)
	w, ok := findWorkload(*name)
	if err != nil || !ok || *seconds < 1 || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> [-seed n] [-seconds n] [-trace 0|1] [-repeat n] [-record file]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := realMain(w, *seed, *seconds, traced, *repeat, *record); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(w workload, seed int64, seconds int, traced bool, repeat int, record string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	// Everything the benchmark writes besides its results lives under
	// .bench_build at the root of the checkout, and goes when the run ends.
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin, err := buildServer(root, dir)
	if err != nil {
		return err
	}
	env := stampEnv(root)

	var reports []*report
	for i := 0; i < repeat; i++ {
		rep, err := runOnce(w, fullScale(seed+int64(i), seconds, traced), root, dir, bin)
		if err != nil {
			return err
		}
		rep.Env = env
		reports = append(reports, rep)
		if repeat > 1 {
			fmt.Printf("# run %d of %d\n", i+1, repeat)
		}
		rep.print(os.Stdout)
	}
	if repeat > 1 && !traced {
		printSpread(os.Stdout, reports)
	}
	if record != "" {
		if err := appendRecord(record, reports); err != nil {
			return err
		}
	}
	last := reports[len(reports)-1]
	if err := last.printResult(os.Stdout); err != nil {
		return err
	}
	for _, rep := range reports {
		if !rep.Correct {
			return errors.New("answers differed from the oracle")
		}
	}
	return nil
}

// repoRoot walks up from the working directory to the checkout that holds
// cmd/tkdserver; the benchmark runs from the root or from its own directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "tkdserver", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/tkdserver not found above the working directory: the benchmark needs the repository it measures")
		}
		dir = parent
	}
}

// env stamps a report with where its numbers came from.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func stampEnv(root string) env {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// appendRecord adds reports to the JSON array in path.
func appendRecord(path string, reports []*report) error {
	var all []*report
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all = append(all, reports...)
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
