package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/tkd"
)

// bufLogger is a text-format slog.Logger writing into out, mirroring what
// run() builds for -log-format text.
func bufLogger(out io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(out, nil))
}

// writeTempCSV materializes a generated dataset as a datagen-format CSV.
func writeTempCSV(t *testing.T, ds *tkd.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBuildServerServesLoadedCSV boots the server exactly as run() does and
// drives one query through the HTTP stack, checking the answer against the
// library on the same data.
func TestBuildServerServesLoadedCSV(t *testing.T) {
	ds := tkd.GenerateIND(300, 4, 20, 0.2, 5)
	path := writeTempCSV(t, ds)
	var out bytes.Buffer
	srv, err := buildServer([]string{"d1=" + path}, false, server.Config{}, bufLogger(&out))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(out.String(), "dataset loaded") || !strings.Contains(out.String(), "dataset=d1") {
		t.Fatalf("no load log:\n%s", out.String())
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := strings.NewReader(`{"k":5,"algorithm":"IBIG"}`)
	resp, err := http.Post(ts.URL+"/v1/datasets/d1/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Items) != len(want.Items) {
		t.Fatalf("%d items, want %d", len(qr.Items), len(want.Items))
	}
	for i, it := range qr.Items {
		if it.ID != want.Items[i].ID || it.Score != want.Items[i].Score {
			t.Fatalf("item %d = %+v, want %+v", i, it, want.Items[i])
		}
	}
}

// TestIndexDirWarmRestart boots twice with -indexdir semantics: the second
// buildServer over the same CSV must warm-load the persisted index (zero
// rebuilds, visible on /metrics) and serve identical answers.
func TestIndexDirWarmRestart(t *testing.T) {
	ds := tkd.GenerateIND(400, 4, 25, 0.2, 8)
	path := writeTempCSV(t, ds)
	ixdir := filepath.Join(t.TempDir(), "ix")
	cfg := server.Config{IndexDir: ixdir}

	srv1, err := buildServer([]string{"d=" + path}, false, cfg, slog.New(slog.DiscardHandler))
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	var out bytes.Buffer
	srv2, err := buildServer([]string{"d=" + path}, false, cfg, bufLogger(&out))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts := httptest.NewServer(srv2)
	defer ts.Close()
	metrics := getURL(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, "tkd_index_warm_loads_total 1") {
		t.Errorf("warm restart did not load the persisted index:\n%s", grepLine(metrics, "tkd_index_"))
	}
	if !strings.Contains(metrics, "tkd_index_builds_total 0") {
		t.Errorf("warm restart rebuilt the index:\n%s", grepLine(metrics, "tkd_index_"))
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/d/query", "application/json",
		strings.NewReader(`{"k":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	want, err := ds.TopK(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range qr.Items {
		if it.ID != want.Items[i].ID || it.Score != want.Items[i].Score {
			t.Fatalf("warm answer item %d = %+v, want %+v", i, it, want.Items[i])
		}
	}
}

func getURL(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func grepLine(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Fatalf("no datasets: exit %d", code)
	}
	if code := run([]string{"-dataset", "nopath"}, &out, &errb); code != 2 {
		t.Fatalf("malformed -dataset: exit %d", code)
	}
	if code := run([]string{"-dataset", "x=/no/such/file.csv"}, &out, &errb); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
}

func TestBuildServerRejectsEmptyName(t *testing.T) {
	ds := tkd.GenerateIND(50, 3, 10, 0.1, 1)
	path := writeTempCSV(t, ds)
	var out bytes.Buffer
	if _, err := buildServer([]string{"=" + path}, false, server.Config{}, bufLogger(&out)); err == nil {
		t.Fatal("empty dataset name accepted")
	}
}

// TestFlagsDocumented holds README.md's flag paragraph to the command line
// the way TestRoutesDocumented holds the API reference to the route table:
// every flag `tkdserver -h` prints is named in the paragraph, and every flag
// the paragraph names is one -h prints, so neither can move without the other.
func TestFlagsDocumented(t *testing.T) {
	var out, usage bytes.Buffer
	if code := run([]string{"-h"}, &out, &usage); code != 2 {
		t.Fatalf("-h: exit %d", code)
	}
	defined := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(usage.String(), -1) {
		defined[m[1]] = true
	}
	if len(defined) == 0 {
		t.Fatalf("no flags parsed out of the usage text:\n%s", usage.String())
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	para := regexp.MustCompile(`(?s)\nFlags: .*?\n\n`).FindString(string(readme))
	if para == "" {
		t.Fatal(`README.md has no "Flags: " paragraph`)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z-]+)[ `]").FindAllStringSubmatch(para, -1) {
		documented[m[1]] = true
	}
	for f := range defined {
		if !documented[f] {
			t.Errorf("README.md's flag paragraph does not name -%s", f)
		}
	}
	for f := range documented {
		if !defined[f] {
			t.Errorf("README.md's flag paragraph names -%s, which tkdserver does not define", f)
		}
	}
}
