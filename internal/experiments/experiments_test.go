package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestAllSpecsRunAtTinyScale executes every experiment end to end at Tiny
// scale and validates table structure: non-empty rows, rectangular shape,
// parseable numeric cells where expected.
func TestAllSpecsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in -short mode")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tables := spec.Run(Tiny)
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Header) < 2 {
					t.Fatalf("malformed table %+v", tab)
				}
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				for _, r := range tab.Rows {
					if len(r) != len(tab.Header) {
						t.Fatalf("table %q: row width %d != header %d", tab.Title, len(r), len(tab.Header))
					}
				}
			}
		})
	}
}

// TestFig18CountsAreConsistent: pruning counts must not exceed N and must
// sum with candidates correctly (spot check at tiny scale).
func TestFig18CountsAreConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in -short mode")
	}
	tables := Fig18(Tiny)
	if len(tables) != 5 {
		t.Fatalf("Fig18 produced %d tables, want 5 datasets", len(tables))
	}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			for _, cell := range row {
				if _, err := strconv.Atoi(cell); err != nil {
					t.Fatalf("non-integer cell %q in %q", cell, tab.Title)
				}
			}
		}
	}
}

// TestFig11BytesFallWalkedRises pins the trade the serving bin rule is read
// off, as counts: over every shape of the serving sweep, fewer bins never make
// the index larger and never leave a query fewer rows to walk, and from the
// finest layout to the coarsest the bytes fall while the walked rows rise.
func TestFig11BytesFallWalkedRises(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in -short mode")
	}
	for _, nd := range servingShapes(Tiny, allDatasets(Tiny)) {
		xis, pts := servingSweep(nd)
		for i := 1; i < len(pts); i++ {
			if pts[i-1].bytes > pts[i].bytes || pts[i-1].walked < pts[i].walked {
				t.Errorf("%s: ξ %d → %d: index %d → %d B, walked %.0f → %.0f rows per query",
					nd.name, xis[i-1], xis[i], pts[i-1].bytes, pts[i].bytes, pts[i-1].walked, pts[i].walked)
			}
		}
		if first, last := pts[0], pts[len(pts)-1]; first.bytes >= last.bytes || first.walked <= last.walked {
			t.Errorf("%s: ξ %d against %d: index %d against %d B, walked %.0f against %.0f",
				nd.name, xis[0], xis[len(xis)-1], first.bytes, last.bytes, first.walked, last.walked)
		}
	}
}

// TestTable4DistancesInRange: Jaccard distances are in [0,1].
func TestTable4DistancesInRange(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in -short mode")
	}
	tab := Table4(Tiny)[0]
	for _, row := range tab.Rows {
		dj, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if dj < 0 || dj > 1 {
			t.Fatalf("D_J out of range: %v", dj)
		}
	}
}

// TestFig10RatiosPositive: compression ratios are positive and CONCISE is
// not worse than WAH by more than noise (the paper's qualitative claim).
func TestFig10Ratios(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in -short mode")
	}
	tabs := Fig10(Tiny)
	ratio := tabs[1]
	for _, row := range ratio.Rows {
		wahR, err1 := strconv.ParseFloat(row[1], 64)
		concR, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatal("unparseable ratios")
		}
		if wahR <= 0 || concR <= 0 {
			t.Fatalf("non-positive ratio in %v", row)
		}
		if concR > wahR*1.01 {
			t.Fatalf("%s: CONCISE ratio %v worse than WAH %v", row[0], concR, wahR)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	tab.Format(&buf)
	s := buf.String()
	if !strings.Contains(s, "## demo") || !strings.Contains(s, "333  4") {
		t.Fatalf("Format output:\n%s", s)
	}
	buf.Reset()
	tab.Markdown(&buf)
	if !strings.Contains(buf.String(), "| 333 | 4 |") {
		t.Fatalf("Markdown output:\n%s", buf.String())
	}
}

func TestLookupAndParseScale(t *testing.T) {
	if _, ok := Lookup("fig12"); !ok {
		t.Fatal("fig12 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	if s, err := ParseScale("full"); err != nil || s != Full {
		t.Fatal("ParseScale full")
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bogus scale accepted")
	}
	for _, s := range []Scale{Quick, Full, Tiny} {
		if s.String() == "" {
			t.Fatal("empty scale name")
		}
	}
}
