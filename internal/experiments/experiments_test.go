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

// TestFig18CountsAreConsistent holds Fig. 18's counts to what the serial
// loop implies. Every object is either cut by Heuristic 1 or a candidate, and
// at least min(k, N) candidates are scored to fill the answer, so
// H1 + H2 + H3 ≤ N − min(k, N). And τ at a queue position is the k-th best
// score so far, which a larger k never raises, so Heuristic 1 never prunes
// more as k grows.
func TestFig18CountsAreConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in -short mode")
	}
	tables := Fig18(Tiny)
	datasets := allDatasets(Tiny)
	if len(tables) != len(datasets) || len(tables) != 5 {
		t.Fatalf("Fig18 produced %d tables, want 5 datasets", len(tables))
	}
	for i, tab := range tables {
		n := datasets[i].ds.Len()
		prevH1 := n
		for _, row := range tab.Rows {
			var v [4]int
			for c, cell := range row {
				x, err := strconv.Atoi(cell)
				if err != nil {
					t.Fatalf("non-integer cell %q in %q", cell, tab.Title)
				}
				v[c] = x
			}
			k, h1, h2, h3 := v[0], v[1], v[2], v[3]
			if h1+h2+h3 > n-min(k, n) {
				t.Errorf("%q k=%d: H1 %d + H2 %d + H3 %d > N %d − min(k, N)", tab.Title, k, h1, h2, h3, n)
			}
			if h1 > prevH1 {
				t.Errorf("%q k=%d: H1 %d rose from %d at a smaller k", tab.Title, k, h1, prevH1)
			}
			prevH1 = h1
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
