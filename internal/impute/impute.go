// Package impute provides the missing-value-inference baseline the paper
// compares against in Table 4: a latent-factor matrix factorization fitted
// by stochastic gradient descent, standing in for the GraphLab Create
// "factorization model" the authors used (8 latent factors, L2
// regularization on the factors, at most 50 optimization iterations — the
// same hyper-parameters the paper reports).
//
// The comparison pipeline is: impute every missing cell, run a TKD query on
// the now-complete dataset, and measure the Jaccard distance between that
// answer set and the incomplete-data answer set.
package impute

import (
	"math/rand"

	"repro/internal/data"
)

// Config holds the factorization hyper-parameters; DefaultConfig matches
// the paper's Table 4 setup.
type Config struct {
	Factors    int     // number of latent factors
	Iterations int     // maximum SGD sweeps
	LearnRate  float64 // SGD step size
	L2         float64 // L2 regularization on the factors
	Seed       int64
}

// DefaultConfig mirrors the paper: 8 factors, ≤50 iterations, default L2.
func DefaultConfig(seed int64) Config {
	return Config{Factors: 8, Iterations: 50, LearnRate: 0.01, L2: 0.05, Seed: seed}
}

// Impute returns a complete copy of ds with every missing cell predicted by
// the factorization model r̂[i][d] = μ + b_i + c_d + u_i · v_d, trained on
// the observed cells only.
func Impute(ds *data.Dataset, cfg Config) *data.Dataset {
	if cfg.Factors <= 0 || cfg.Iterations <= 0 {
		panic("impute: invalid config")
	}
	n, dim := ds.Len(), ds.Dim()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Global mean of observed cells.
	var sum float64
	var cnt int
	type cell struct {
		i, d int
		v    float64
	}
	var cells []cell
	for i := 0; i < n; i++ {
		o := ds.Obj(i)
		for d := 0; d < dim; d++ {
			if o.Observed(d) {
				v := o.Values[d]
				sum += v
				cnt++
				cells = append(cells, cell{i, d, v})
			}
		}
	}
	mu := 0.0
	if cnt > 0 {
		mu = sum / float64(cnt)
	}

	// Factor matrices with small random init; per-row and per-column biases.
	u := make([][]float64, n)
	v := make([][]float64, dim)
	bi := make([]float64, n)
	cd := make([]float64, dim)
	for i := range u {
		u[i] = make([]float64, cfg.Factors)
		for f := range u[i] {
			u[i][f] = rng.NormFloat64() * 0.1
		}
	}
	for d := range v {
		v[d] = make([]float64, cfg.Factors)
		for f := range v[d] {
			v[d][f] = rng.NormFloat64() * 0.1
		}
	}

	predict := func(i, d int) float64 {
		p := mu + bi[i] + cd[d]
		for f := 0; f < cfg.Factors; f++ {
			p += u[i][f] * v[d][f]
		}
		return p
	}

	for it := 0; it < cfg.Iterations; it++ {
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		for _, c := range cells {
			err := c.v - predict(c.i, c.d)
			bi[c.i] += cfg.LearnRate * (err - cfg.L2*bi[c.i])
			cd[c.d] += cfg.LearnRate * (err - cfg.L2*cd[c.d])
			ui, vd := u[c.i], v[c.d]
			for f := 0; f < cfg.Factors; f++ {
				uf, vf := ui[f], vd[f]
				ui[f] += cfg.LearnRate * (err*vf - cfg.L2*uf)
				vd[f] += cfg.LearnRate * (err*uf - cfg.L2*vf)
			}
		}
	}

	out := data.New(dim)
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		o := ds.Obj(i)
		for d := 0; d < dim; d++ {
			if o.Observed(d) {
				row[d] = o.Values[d]
			} else {
				row[d] = predict(i, d)
			}
		}
		out.MustAppend(o.ID, row)
	}
	return out
}

// JaccardDistance computes D_J = 1 − |A∩B| / |A∪B| between two answer sets
// identified by object ID.
func JaccardDistance(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inA := make(map[string]bool, len(a))
	for _, x := range a {
		inA[x] = true
	}
	union := make(map[string]bool, len(a)+len(b))
	inter := 0
	for _, x := range a {
		union[x] = true
	}
	for _, x := range b {
		if inA[x] {
			inter++
		}
		union[x] = true
	}
	return 1 - float64(inter)/float64(len(union))
}
