package experiments

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/gen"
)

// synAlgorithms is the algorithm roster of Figs. 13–17 (Naive is dropped
// after Fig. 12, as in the paper).
var synAlgorithms = []core.Algorithm{core.AlgESB, core.AlgUBB, core.AlgBIG, core.AlgIBIG}

// sweepSynthetic runs one Fig-13..17 style experiment: for each synthetic
// distribution and each point of the sweep, generate the dataset, preprocess
// once, and time the four algorithms at defaultK (or a varying k for
// Fig. 13). label names the swept parameter.
func sweepSynthetic(title, label string, points []string,
	dataset func(point int, dist gen.Distribution) *data.Dataset,
	k func(point int) int) []Table {

	var out []Table
	for _, dist := range []gen.Distribution{gen.IND, gen.AC} {
		tab := Table{
			Title:  fmt.Sprintf("%s — %s", title, dist),
			Header: append([]string{label}, algoNames(synAlgorithms)...),
		}
		for p := range points {
			ds := dataset(p, dist)
			sorted := ds.SortDims()
			pre := &core.Pre{
				Queue:  core.BuildMaxScoreQueue(ds),
				Bitmap: bitmapidx.BuildSorted(sorted, bitmapidx.Options{}),
				Binned: bitmapidx.BuildSorted(sorted, bitmapidx.Options{Bins: defaultBins(dist.String())}),
			}
			row := []string{points[p]}
			for _, alg := range synAlgorithms {
				d, _ := runAlgo(alg, ds, k(p), pre)
				row = append(row, seconds(d))
			}
			tab.Rows = append(tab.Rows, row)
		}
		out = append(out, tab)
	}
	return out
}

func algoNames(algs []core.Algorithm) []string {
	out := make([]string, len(algs))
	for i, a := range algs {
		out[i] = a.String()
	}
	return out
}

// baseConfig is the Table 2 default, scaled.
func baseConfig(s Scale, dist gen.Distribution) gen.Config {
	cfg := gen.Default(dist, int64(20+int(dist)))
	switch s {
	case Quick:
		cfg.N = 5000
	case Tiny:
		cfg.N = 600
	}
	return cfg
}

// Fig13 reproduces Fig. 13: synthetic TKD cost vs k.
func Fig13(s Scale) []Table {
	points := make([]string, len(ksSweep))
	for i, k := range ksSweep {
		points[i] = fmt.Sprintf("%d", k)
	}
	return sweepSynthetic("Fig. 13 — TKD cost (s) vs k", "k", points,
		func(p int, dist gen.Distribution) *data.Dataset {
			return gen.Synthetic(baseConfig(s, dist))
		},
		func(p int) int { return ksSweep[p] })
}

// Fig14 reproduces Fig. 14: synthetic TKD cost vs cardinality N.
func Fig14(s Scale) []Table {
	ns := []int{50_000, 100_000, 150_000, 200_000, 250_000}
	switch s {
	case Quick:
		ns = []int{2000, 4000, 6000, 8000, 10_000}
	case Tiny:
		ns = []int{200, 400, 600, 800, 1000}
	}
	points := make([]string, len(ns))
	for i, n := range ns {
		points[i] = fmt.Sprintf("%d", n)
	}
	return sweepSynthetic("Fig. 14 — TKD cost (s) vs cardinality N", "N", points,
		func(p int, dist gen.Distribution) *data.Dataset {
			cfg := baseConfig(s, dist)
			cfg.N = ns[p]
			return gen.Synthetic(cfg)
		},
		func(int) int { return defaultK })
}

// Fig15 reproduces Fig. 15: synthetic TKD cost vs dimensionality.
func Fig15(s Scale) []Table {
	dims := []int{5, 10, 15, 20, 25}
	points := make([]string, len(dims))
	for i, d := range dims {
		points[i] = fmt.Sprintf("%d", d)
	}
	return sweepSynthetic("Fig. 15 — TKD cost (s) vs dimensionality", "dim", points,
		func(p int, dist gen.Distribution) *data.Dataset {
			cfg := baseConfig(s, dist)
			cfg.Dim = dims[p]
			return gen.Synthetic(cfg)
		},
		func(int) int { return defaultK })
}

// Fig16 reproduces Fig. 16: synthetic TKD cost vs missing rate σ.
func Fig16(s Scale) []Table {
	sigmas := []float64{0, 0.05, 0.10, 0.20, 0.30, 0.40}
	points := make([]string, len(sigmas))
	for i, sg := range sigmas {
		points[i] = fmt.Sprintf("%.0f%%", sg*100)
	}
	return sweepSynthetic("Fig. 16 — TKD cost (s) vs missing rate σ", "σ", points,
		func(p int, dist gen.Distribution) *data.Dataset {
			cfg := baseConfig(s, dist)
			cfg.MissingRate = sigmas[p]
			return gen.Synthetic(cfg)
		},
		func(int) int { return defaultK })
}

// Fig17 reproduces Fig. 17: synthetic TKD cost vs dimensional cardinality c.
func Fig17(s Scale) []Table {
	cs := []int{50, 100, 200, 400, 800}
	points := make([]string, len(cs))
	for i, c := range cs {
		points[i] = fmt.Sprintf("%d", c)
	}
	return sweepSynthetic("Fig. 17 — TKD cost (s) vs dimensional cardinality c", "c", points,
		func(p int, dist gen.Distribution) *data.Dataset {
			cfg := baseConfig(s, dist)
			cfg.Cardinality = cs[p]
			return gen.Synthetic(cfg)
		},
		func(int) int { return defaultK })
}
