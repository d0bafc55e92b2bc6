package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestRunList holds -list to the paper's artifacts: Figs. 10–18, Tables 3
// and 4, and the ablation, nothing else.
func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"fig10", "fig11", "table3", "fig12", "table4", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "ablation"}
	if !slices.Equal(got, want) {
		t.Fatalf("-list names %v, want %v", got, want)
	}
}

func TestRunSingleExperimentTiny(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table3", "-scale", "tiny"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table 3") {
		t.Fatalf("no table emitted:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "running table3") {
		t.Fatalf("no progress log:\n%s", errb.String())
	}
}

func TestRunMarkdownFormat(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table3", "-scale", "tiny", "-format", "markdown"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "| --- |") {
		t.Fatalf("not markdown:\n%s", out.String())
	}
}

// TestRunJSONReport checks the -json output: host/runtime context (core
// count, GOMAXPROCS — without which parallel numbers are uninterpretable)
// plus the experiment tables.
func TestRunJSONReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table3", "-scale", "tiny", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("invalid JSON report: %v", err)
	}
	if report.Host.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d", report.Host.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if report.Host.NumCPU != runtime.NumCPU() {
		t.Errorf("num_cpu = %d, want %d", report.Host.NumCPU, runtime.NumCPU())
	}
	if report.Host.GoVersion != runtime.Version() || report.Host.GOOS != runtime.GOOS {
		t.Errorf("host info = %+v", report.Host)
	}
	if report.Scale != "tiny" {
		t.Errorf("scale = %q, want tiny", report.Scale)
	}
	if len(report.Experiments) != 1 || report.Experiments[0].Name != "table3" {
		t.Fatalf("experiments = %+v", report.Experiments)
	}
	if len(report.Experiments[0].Tables) == 0 || report.Experiments[0].Seconds < 0 {
		t.Errorf("experiment missing tables or timing: %+v", report.Experiments[0])
	}
	if code := run([]string{"-exp", "table3", "-scale", "tiny", "-json", "/no/such/dir/x.json"}, &out, &errb); code != 1 {
		t.Fatalf("bad -json path: exit %d", code)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("unknown experiment: exit %d", code)
	}
	// benchrunner drives no server: the soak, chaos and kill gates are tests
	// in the packages they gate, with no experiment or flag here.
	for _, args := range [][]string{{"-exp", "serve"}, {"-exp", "kill"}, {"-chaos"}, {"-shards", "2"}, {"-seed", "1"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
	if code := run([]string{"-scale", "galactic"}, &out, &errb); code != 2 {
		t.Fatalf("unknown scale: exit %d", code)
	}
	if code := run([]string{"-exp", "table3", "-scale", "tiny", "-o", "/no/such/dir/x"}, &out, &errb); code != 1 {
		t.Fatalf("bad output path: exit %d", code)
	}
	if code := run([]string{"-exp", "table3", "-scale", "tiny", "-format", "xml"}, &out, &errb); code != 2 {
		t.Fatalf("unknown format: exit %d, want 2", code)
	}
	// A device that refuses every write: the tables are lost, so the run fails.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	if code := run([]string{"-exp", "table3", "-scale", "tiny", "-o", "/dev/full"}, &out, &errb); code != 1 {
		t.Fatalf("-o /dev/full: exit %d, want 1", code)
	}
}
