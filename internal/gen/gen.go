// Package gen produces the workloads of the TKD paper's evaluation (§5):
// synthetic datasets following the independent (IND) and anti-correlated
// (AC) distributions of Börzsönyi et al. (ICDE 2001) with MCAR missing-value
// injection, plus laptop-scale simulators for the three real datasets the
// paper uses (MovieLens, NBA, Zillow).
//
// The real datasets themselves are not redistributable, so the simulators
// reproduce the five statistics the TKD algorithms are sensitive to —
// cardinality, dimensionality, per-dimension domain size, missing rate, and
// value correlation structure — as documented on each simulator below.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
)

// Distribution selects the synthetic value distribution.
type Distribution int

const (
	// IND draws every dimension independently and uniformly.
	IND Distribution = iota
	// AC draws anti-correlated points: good values in one dimension come
	// with bad values in others (points concentrate near an anti-diagonal
	// hyperplane), the adversarial case for dominance-based pruning.
	AC
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case IND:
		return "IND"
	case AC:
		return "AC"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Config parameterizes synthetic generation, mirroring Table 2 of the paper.
type Config struct {
	N           int          // dataset cardinality
	Dim         int          // dimensionality
	Cardinality int          // distinct values per dimension (the paper's c)
	MissingRate float64      // σ ∈ [0, 1)
	Dist        Distribution // IND or AC
	Seed        int64
}

// Default returns the paper's default parameter setting (Table 2, bold):
// N=100K, dim=10, c=200, σ=10%.
func Default(dist Distribution, seed int64) Config {
	return Config{N: 100_000, Dim: 10, Cardinality: 200, MissingRate: 0.10, Dist: dist, Seed: seed}
}

// Synthetic generates a dataset per cfg.
func Synthetic(cfg Config) *data.Dataset {
	if cfg.N <= 0 || cfg.Dim <= 0 || cfg.Cardinality <= 0 {
		panic(fmt.Sprintf("gen: invalid config %+v", cfg))
	}
	if cfg.MissingRate < 0 || cfg.MissingRate >= 1 {
		panic(fmt.Sprintf("gen: missing rate %v out of [0,1)", cfg.MissingRate))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := data.New(cfg.Dim)
	row := make([]float64, cfg.Dim)
	unit := make([]float64, cfg.Dim)
	for i := 0; i < cfg.N; i++ {
		switch cfg.Dist {
		case AC:
			antiCorrelated(rng, unit)
		default:
			for d := range unit {
				unit[d] = rng.Float64()
			}
		}
		for d := range row {
			// Quantize [0,1) onto c distinct integer values.
			v := int(unit[d] * float64(cfg.Cardinality))
			if v >= cfg.Cardinality {
				v = cfg.Cardinality - 1
			}
			row[d] = float64(v)
		}
		injectMissing(rng, row, cfg.MissingRate)
		ds.MustAppend(fmt.Sprintf("o%d", i), row)
	}
	return ds
}

// antiCorrelated fills unit with values in [0,1] that sum to dim/2: starting
// from the centroid, mass is repeatedly shifted between random pairs of
// dimensions, which preserves the sum and concentrates points around the
// anti-diagonal plane (the standard construction from the skyline
// literature).
func antiCorrelated(rng *rand.Rand, unit []float64) {
	for d := range unit {
		unit[d] = 0.5
	}
	dim := len(unit)
	for t := 0; t < 2*dim; t++ {
		i, j := rng.Intn(dim), rng.Intn(dim)
		if i == j {
			continue
		}
		room := math.Min(unit[i], 1-unit[j])
		delta := rng.Float64() * room
		unit[i] -= delta
		unit[j] += delta
	}
}

// injectMissing applies MCAR missingness at rate sigma in place, always
// keeping at least one observed dimension (the paper only considers objects
// with ≥1 observed value).
func injectMissing(rng *rand.Rand, row []float64, sigma float64) {
	if sigma <= 0 {
		return
	}
	var missBuf [data.MaxDim]bool
	miss := missBuf[:len(row)]
	all := true
	for d := range row {
		miss[d] = rng.Float64() < sigma
		all = all && miss[d]
	}
	if all {
		// The paper only considers objects with at least one observed
		// dimension; re-observe one at random.
		miss[rng.Intn(len(row))] = false
	}
	for d, m := range miss {
		if m {
			row[d] = data.Missing()
		}
	}
}

// MovieLens simulates the paper's MovieLens workload: 3,700 movies rated by
// 60 audiences on the integer scale 1..5 with a 95% missing rate. Each movie
// carries a latent quality drawn around 3.5 and each audience a small bias,
// so ratings are correlated per movie exactly as real recommender data is.
// Higher ratings are better in the source data; the returned dataset is
// already negated into the library's smaller-is-better convention.
func MovieLens(seed int64) *data.Dataset {
	const (
		n     = 3700
		dim   = 60
		sigma = 0.95
	)
	rng := rand.New(rand.NewSource(seed))
	ds := data.New(dim)
	bias := make([]float64, dim)
	for a := range bias {
		bias[a] = rng.NormFloat64() * 0.4
	}
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		quality := 3.5 + rng.NormFloat64()
		for a := 0; a < dim; a++ {
			r := math.Round(quality + bias[a] + rng.NormFloat64()*0.7)
			if r < 1 {
				r = 1
			}
			if r > 5 {
				r = 5
			}
			row[a] = r
		}
		injectMissing(rng, row, sigma)
		ds.MustAppend(fmt.Sprintf("m%d", i), row)
	}
	ds.Negate()
	return ds
}

// NBA simulates the paper's NBA workload: 16,000 player records over 4
// attributes (games played, minutes played, total points, offensive
// rebounds) with a 20% missing rate. The four attributes share a latent
// "career length" factor, giving the strong positive correlation that makes
// the MaxScore bound tight on this dataset (the paper's §5.2 finding that
// UBB ≈ BIG on NBA). Larger is better in the source data; the returned
// dataset is negated into smaller-is-better form.
func NBA(seed int64) *data.Dataset {
	const (
		n     = 16000
		sigma = 0.20
	)
	rng := rand.New(rand.NewSource(seed))
	ds := data.New(4)
	row := make([]float64, 4)
	for i := 0; i < n; i++ {
		career := math.Exp(rng.NormFloat64()*0.9 - 0.5) // lognormal career scale
		games := math.Round(math.Min(1600, 300*career*(0.5+rng.Float64())))
		minutes := math.Round(games * (8 + 24*rng.Float64()))
		points := math.Round(minutes * (0.2 + 0.4*rng.Float64()))
		rebounds := math.Round(minutes * (0.02 + 0.06*rng.Float64()))
		row[0], row[1], row[2], row[3] = games, minutes, points, rebounds
		injectMissing(rng, row, sigma)
		ds.MustAppend(fmt.Sprintf("p%d", i), row)
	}
	ds.Negate()
	return ds
}

// ZillowSize is the cardinality of the Zillow simulator; exported so the
// experiment harness can scale it down uniformly.
const ZillowSize = 200_000

// Zillow simulates the paper's Zillow workload: real-estate entries over 5
// attributes — bedrooms, bathrooms, living area, lot area, estimated price —
// with a 14.2% missing rate. The distinguishing feature the simulator
// preserves is the wildly heterogeneous per-dimension domain cardinality
// (≈6, ≈10, ≈35, large, very large), which drives the per-dimension bin
// choices of the paper's Fig. 11(c). Values are kept as generated
// (smaller-is-better is natural for price; direction is immaterial to the
// cost behaviour being reproduced). n <= 0 selects the full ZillowSize.
func Zillow(seed int64, n int) *data.Dataset {
	if n <= 0 {
		n = ZillowSize
	}
	const sigma = 0.142
	rng := rand.New(rand.NewSource(seed))
	ds := data.New(5)
	row := make([]float64, 5)
	for i := 0; i < n; i++ {
		scale := math.Exp(rng.NormFloat64() * 0.5) // house size factor
		bedrooms := math.Round(math.Min(6, math.Max(1, 3*scale)))
		bathrooms := math.Round(math.Min(10, math.Max(1, 4*scale))) / 2 * 2 // even steps, ~10 distinct halves
		living := math.Round(1800*scale/50) * 50                            // ~35 distinct plateaus
		lot := math.Round(8000 * scale * (0.5 + rng.Float64()))
		price := math.Round(400000 * scale * (0.7 + 0.6*rng.Float64()))
		row[0], row[1], row[2], row[3], row[4] = bedrooms, bathrooms, living, lot, price
		injectMissing(rng, row, sigma)
		ds.MustAppend(fmt.Sprintf("h%d", i), row)
	}
	return ds
}
