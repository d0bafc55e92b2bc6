package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end at a scale that fits a unit test
// (2000 rows, one boot, a one-second window) plus one traced run, so the
// benchmark keeps compiling against the packages it measures and its oracle
// keeps agreeing with a real tkdserver.
func TestSmoke(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bin, err := buildServer(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	smoke := options{seed: 1, window: time.Second, minBoots: 1, warmup: 200 * time.Millisecond, probe: 300 * time.Millisecond}
	check := func(t *testing.T, w workload, o options, defs []metricDef) {
		w.n = 2000
		rep, err := runOnce(w, o, root, dir, bin)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Errorf("answers differed from the oracle: %v", rep.Errors)
		}
		for op, o := range rep.Ops {
			if o.Failed+o.Mismatched > 0 {
				t.Errorf("%s: %d failed, %d mismatched of %d: %v", op, o.Failed, o.Mismatched, o.Attempted, rep.Errors)
			}
		}
		if rep.Ops["query"].Attempted == 0 {
			t.Error("no query was attempted")
		}
		if w.writer && (rep.Ops["visible"].Attempted == 0 || rep.CheckedReads == 0) {
			t.Errorf("ingest: %d batches became visible, %d reads were checked", rep.Ops["visible"].Attempted, rep.CheckedReads)
		}
		if len(rep.Metrics) != len(defs) {
			t.Fatalf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
		}
		if !o.traced {
			for _, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
				}
			}
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) { check(t, w, smoke, endToEnd) })
	}
	t.Run("traced", func(t *testing.T) {
		smoke.traced = true
		check(t, workloads[1], smoke, perLayer)
	})
}

// TestBenchmarkJSON holds BENCHMARK.json at the root of the repository to
// the tables this package reports from.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: listed as %q (%q), the benchmark has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, the benchmark reports %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			if got := listed[i]; got != (metric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: listed as %+v, the benchmark has %+v", kind, i, got, d)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
}
