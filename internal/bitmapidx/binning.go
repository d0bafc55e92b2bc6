package bitmapidx

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/data"
)

// OptimalBins evaluates the paper's Eq. (8): the bin count ξ minimizing the
// product of index space cost (Eq. 5) and query cost (Eq. 6),
//
//	ξ* = sqrt( σN / (log2(σN) − 1) ),
//
// rounded to the nearest integer and floored at 1. The paper's own examples
// fix the log base: ξ*(N=100K, σ=0.1) = 29 and ξ*(N=16K, σ=0.2) = 17 hold
// with log2. It lives here (rather than in core) so Build can fall back to
// it when Options.Bins is empty; core re-exports it.
func OptimalBins(n int, sigma float64) int {
	sn := sigma * float64(n)
	if sn <= 2 {
		return 1
	}
	x := math.Sqrt(sn / (math.Log2(sn) - 1))
	xi := int(math.Round(x))
	if xi < 1 {
		xi = 1
	}
	return xi
}

// ServingBins is the bin count the serving index asks of every dimension when
// the caller names none, r(N, σ), which AssignBins caps at the dimension's
// distinct-value count, so ξᵢ = min(cᵢ, r). Over more than one kernel block
// of rows (bitvec.BlockBits) r is 2 · Eq. (8). Eq. (8) minimizes space ×
// query cost under a model where a score visits all of Q; since the score
// became popcounts plus a walk of what ties an inexact bucket (score.go) the
// query term is that walk, ∝ N·d/ξ, and it vanishes where a candidate's
// buckets hold one value each. Twice Eq. (8) is where the Fig. 11 sweep
// (DESIGN.md §1) puts that point for low-cardinality dimensions — the greedy
// equi-depth rule gives the low ranks, where candidates live, a bucket each —
// and where, on continuous ones, the next doubling stops paying for its
// bytes. Over at most one block, 2 · Eq. (8) is at most 52 and leaves small
// shapes walking, while a column is at most a block of words: there r is
// ValueGranularBins, so every dimension of at most that many values has a
// bucket per value and nothing is walked, for at most
// (ValueGranularBins + 1) columns of 1 KiB per dimension.
func ServingBins(n int, sigma float64) int {
	if n <= bitvec.BlockBits {
		return ValueGranularBins
	}
	return 2 * OptimalBins(n, sigma)
}

// ValueGranularBins is ServingBins over at most one kernel block of rows: one
// bucket per value for every dimension of at most 64 distinct values.
const ValueGranularBins = 64

// LeavesFloor reports whether a dataset growing from oldN to n rows crosses
// one kernel block, where ServingBins turns from ValueGranularBins to
// 2 · Eq. (8). An index the rule laid out at oldN is then rebuilt rather than
// patched (AppendRows keeps its layout), so that a small dataset grown by
// appends takes the large-N layout once instead of 64 bins at any size.
func LeavesFloor(oldN, n int) bool { return oldN <= bitvec.BlockBits && n > bitvec.BlockBits }

// AssignBins partitions the distinct values of one dimension into at most
// xi bins using the paper's adaptive equi-depth rule (§4.4, Eq. 3–4): each
// bin greedily takes whole distinct values while its accumulated object
// count stays within (remaining objects)/(remaining bins) — always taking at
// least one value — and the last bin absorbs whatever is left (its upper
// boundary is max_i). The returned slice maps value rank → bin id; bin ids
// are dense, 0-based, and non-decreasing in rank.
//
// The rule adapts to skew automatically: on uniform data every bin holds the
// same number of objects; on skewed data a heavy value gets a bin largely to
// itself, which is what minimizes query-time fluctuation (§4.4).
func AssignBins(st *data.DimStats, xi int) []int {
	ci := len(st.CountPerValue)
	if xi < 1 {
		xi = 1
	}
	if xi > ci {
		xi = ci
	}
	out := make([]int, ci)
	remaining := 0
	for _, c := range st.CountPerValue {
		remaining += c
	}
	rank := 0
	for b := 0; b < xi; b++ {
		binsAfter := xi - b - 1
		if binsAfter == 0 {
			for ; rank < ci; rank++ {
				out[rank] = b
			}
			break
		}
		capacity := remaining / (binsAfter + 1) // Eq. (3)/(4)
		taken := 0
		for rank < ci && ci-rank > binsAfter {
			c := st.CountPerValue[rank]
			if taken > 0 && taken+c > capacity {
				break
			}
			out[rank] = b
			taken += c
			rank++
		}
		remaining -= taken
	}
	return out
}
