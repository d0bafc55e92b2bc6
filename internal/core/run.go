package core

import (
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/data"
	"repro/internal/obs"
)

// Algorithm identifies one of the paper's TKD algorithms.
type Algorithm int

const (
	// AlgNaive is the exhaustive baseline of §4.1.
	AlgNaive Algorithm = iota
	// AlgESB is the extended skyband based algorithm (Algorithm 1).
	AlgESB
	// AlgUBB is the upper bound based algorithm (Algorithm 2).
	AlgUBB
	// AlgBIG is the bitmap index guided algorithm (Algorithm 4).
	AlgBIG
	// AlgIBIG is the improved BIG algorithm (§4.4).
	AlgIBIG
)

// Algorithms lists every algorithm in the paper's presentation order.
var Algorithms = []Algorithm{AlgNaive, AlgESB, AlgUBB, AlgBIG, AlgIBIG}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgNaive:
		return "Naive"
	case AlgESB:
		return "ESB"
	case AlgUBB:
		return "UBB"
	case AlgBIG:
		return "BIG"
	case AlgIBIG:
		return "IBIG"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves a case-sensitive algorithm name.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// Pre bundles the preprocessing artifacts the algorithms consume. Table 3 of
// the paper measures exactly these three build steps.
type Pre struct {
	// Queue is the MaxScore priority queue F (UBB, BIG, IBIG walk it; its
	// bounds are every algorithm's tie order).
	Queue *MaxScoreQueue
	// Bitmap is the value-granular bitmap index (BIG).
	Bitmap *bitmapidx.Index
	// Binned is the binned, compressed bitmap index (IBIG).
	Binned *bitmapidx.Index
}

// BuildServingIndex builds the binned bitmap index IBIG serves from — the
// one place the serving recipe is spelled: bins follows
// bitmapidx.Options.Bins semantics, nil meaning bitmapidx.ServingBins for
// every dimension, over a representation-adaptive CONCISE base (the
// paper's codec choice for IBIG), so each column is stored compressed when
// that is fill-dominated and dense otherwise, and query execution dispatches
// to the matching kernels. Answers are bit-identical to a pure-codec index
// (build one directly via bitmapidx for the paper's storage experiments).
func BuildServingIndex(sorted *data.Sorted, bins []int) *bitmapidx.Index {
	if bins == nil {
		ds := sorted.Dataset()
		bins = []int{bitmapidx.ServingBins(ds.Len(), ds.MissingRate())}
	}
	return bitmapidx.BuildSorted(sorted, bitmapidx.Options{Codec: bitmapidx.Concise, Bins: bins, Adaptive: true})
}

// Preprocess builds every artifact an algorithm set needs; bins is handed to
// BuildServingIndex (nil = bitmapidx.ServingBins).
func Preprocess(ds *data.Dataset, bins []int) *Pre {
	pre := &Pre{}
	pre.fill(ds, bins, NeedQueue|NeedBitmap|NeedBinned)
	return pre
}

// Run dispatches a TKD query to the chosen algorithm, building any missing
// preprocessing artifact on the fly (pass a shared Pre to amortize them, as
// the experiments do).
func Run(a Algorithm, ds *data.Dataset, k int, pre *Pre) (Result, Stats) {
	return RunWorkers(a, ds, k, pre, 1)
}

// RunWorkers is Run with a worker count: 1 is the serial path, 0 selects
// GOMAXPROCS, and n > 1 fans candidate scoring across n goroutines through
// the batch-windowed engine (UBB/BIG/IBIG/Naive) or ESB's bucket fan-out.
// The answer set is identical to the serial run's.
func RunWorkers(a Algorithm, ds *data.Dataset, k int, pre *Pre, workers int) (Result, Stats) {
	return RunWorkersTraced(a, ds, k, pre, workers, nil)
}

// RunWorkersTraced is RunWorkers with tracing: the queue-driven algorithms
// (UBB/BIG/IBIG) sample their τ trajectory into sp at window granularity.
// sp may be nil, in which case this is exactly RunWorkers — the span hook
// adds no allocation to the scoring hot path either way (Naive and ESB walk
// no MaxScore queue, hence no trajectory; their Stats still reach the span
// through the caller).
func RunWorkersTraced(a Algorithm, ds *data.Dataset, k int, pre *Pre, workers int, sp *obs.Span) (Result, Stats) {
	if k <= 0 {
		return Result{}, Stats{}
	}
	if pre == nil {
		pre = &Pre{}
	}
	pre.fill(ds, nil, NeedFor(a))
	switch a {
	case AlgNaive:
		return NaiveWorkers(ds, k, pre.Queue, workers)
	case AlgESB:
		return ESBWorkers(ds, k, pre.Queue, workers)
	case AlgUBB:
		return runQueue(ds, k, pre.Queue, workers, func() scorer { return ubbScorer{ds: ds} }, sp)
	case AlgBIG:
		return bitmapRun(a, ds, k, pre.Bitmap, pre.Queue, workers, sp)
	case AlgIBIG:
		return bitmapRun(a, ds, k, pre.Binned, pre.Queue, workers, sp)
	default:
		panic(fmt.Sprintf("core: unknown algorithm %d", int(a)))
	}
}
