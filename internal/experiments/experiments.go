// Package experiments regenerates every table and figure of the TKD paper's
// evaluation (§5). Each driver reproduces one experiment: same workloads,
// same parameter sweeps, same reported rows/series. Absolute numbers differ
// from the paper (different hardware, Go instead of Java, simulated real
// datasets); the shapes — which algorithm wins, growth trends, crossovers —
// are the reproduction target; `benchrunner -exp … -json` records them.
//
// The paper stores IBIG's binned index in CONCISE. Here every index is dense,
// as the server's is, so every query time is over a dense index; where a
// table reports what an index stores (Figs. 10–11, Table 3, the ablation),
// the bytes are the codecs' — each column compressed on its own, as the
// paper stores it (compressColumns).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
)

// Scale selects experiment sizes. Full follows Table 2 of the paper; Quick
// shrinks dataset cardinality (never the algorithm set or the sweeps) so the
// whole suite runs in minutes on a laptop.
type Scale int

const (
	// Quick runs reduced-cardinality versions of every experiment.
	Quick Scale = iota
	// Full runs the paper's sizes (Zillow capped — see ZillowCap).
	Full
	// Tiny is a test-only scale: every dataset shrinks to a few hundred
	// objects so the whole suite runs in seconds.
	Tiny
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Full:
		return "full"
	case Tiny:
		return "tiny"
	default:
		return "quick"
	}
}

// ParseScale resolves a scale name.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "full":
		return Full, nil
	case "quick":
		return Quick, nil
	case "tiny":
		return Tiny, nil
	default:
		return Quick, fmt.Errorf("experiments: unknown scale %q (want quick, full, or tiny)", name)
	}
}

// ZillowCap bounds the Zillow simulator at Full scale. The paper's raw
// (value-granular) bitmap index over all 200K entries needs multiple GB —
// the authors report 5,749 s to build it (Table 3); we cap the dataset so
// the BIG index fits comfortably in laptop RAM. The Zillow rows of
// `benchrunner -exp … -json` are over the capped dataset.
const ZillowCap = 50_000

// Table is one reproduced table or figure panel in row/column form.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table as aligned text.
func (t Table) Format(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(w, "## %s\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(sep, " | "))
	for _, r := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Spec describes one runnable experiment of `benchrunner -exp … -json`.
type Spec struct {
	Name  string // e.g. "fig12"
	Paper string // what the paper's artifact shows
	Run   func(Scale) []Table
}

// All lists every experiment in the paper's presentation order.
func All() []Spec {
	return []Spec{
		{"fig10", "WAH vs CONCISE: compression CPU time and ratio on real datasets", Fig10},
		{"fig11", "BIG vs IBIG: CPU time and index size vs bin count ξ", Fig11},
		{"table3", "Preprocessing time of MaxScore queue, bitmap and binned bitmap", Table3},
		{"fig12", "TKD cost on real datasets vs k (Naive, ESB, UBB, BIG, IBIG)", Fig12},
		{"table4", "Jaccard distance vs missing-value-inference answers on NBA", Table4},
		{"fig13", "TKD cost on synthetic data vs k", Fig13},
		{"fig14", "TKD cost on synthetic data vs cardinality N", Fig14},
		{"fig15", "TKD cost on synthetic data vs dimensionality", Fig15},
		{"fig16", "TKD cost on synthetic data vs missing rate σ", Fig16},
		{"fig17", "TKD cost on synthetic data vs dimensional cardinality c", Fig17},
		{"fig18", "Objects pruned by Heuristics 1/2/3 vs k", Fig18},
		{"ablation", "Design-choice ablations: refinement strategy, column codec, ESB candidate set (not in the paper)", Ablation},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// ---- dataset providers ----

// named couples a dataset with its display name.
type named struct {
	name string
	ds   *data.Dataset
}

// realDatasets returns the three real-data simulators at the given scale.
func realDatasets(s Scale) []named {
	switch s {
	case Full:
		return []named{
			{"MovieLens", gen.MovieLens(1)},
			{"NBA", gen.NBA(2)},
			{"Zillow", gen.Zillow(3, ZillowCap)},
		}
	case Tiny:
		return []named{
			{"MovieLens", subsample(gen.MovieLens(1), 16)}, // ~230 movies
			{"NBA", subsample(gen.NBA(2), 64)},             // 250 players
			{"Zillow", gen.Zillow(3, 600)},
		}
	default:
		return []named{
			{"MovieLens", subsample(gen.MovieLens(1), 4)}, // ~925 movies
			{"NBA", subsample(gen.NBA(2), 8)},             // 2,000 players
			{"Zillow", gen.Zillow(3, 8000)},
		}
	}
}

// synthetic returns IND and AC datasets under the paper's defaults with one
// parameter overridden by the caller.
func syntheticPair(s Scale, mutate func(*gen.Config)) []named {
	out := make([]named, 0, 2)
	for _, dist := range []gen.Distribution{gen.IND, gen.AC} {
		cfg := gen.Default(dist, int64(10+dist))
		switch s {
		case Quick:
			cfg.N = 5000
		case Tiny:
			cfg.N = 600
		}
		if mutate != nil {
			mutate(&cfg)
		}
		out = append(out, named{dist.String(), gen.Synthetic(cfg)})
	}
	return out
}

// allDatasets is the five-dataset roster of Table 3 / Fig. 18.
func allDatasets(s Scale) []named {
	out := realDatasets(s)
	out = append(out, syntheticPair(s, nil)...)
	return out
}

// subsample keeps every stride-th object.
func subsample(ds *data.Dataset, stride int) *data.Dataset {
	out := data.New(ds.Dim())
	for i := 0; i < ds.Len(); i += stride {
		o := ds.Obj(i)
		out.MustAppend(o.ID, o.Values)
	}
	return out
}

// ksSweep is the k sweep of Table 2.
var ksSweep = []int{4, 8, 16, 32, 64}

// defaultK is Table 2's bold default.
const defaultK = 16

// measure runs fn once and returns the wall-clock duration.
func measure(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func seconds(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// runAlgo executes one TKD query and returns its duration and stats.
func runAlgo(a core.Algorithm, ds *data.Dataset, k int, pre *core.Pre) (time.Duration, core.Stats) {
	var st core.Stats
	d := measure(func() {
		_, st = core.Run(a, ds, k, pre)
	})
	return d, st
}
