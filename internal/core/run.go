package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/bitmapidx"
	"repro/internal/bitvec"
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

// UsefulWorkers caps n, the workers a query of algorithm a over rows rows
// would be given, at what it can use. BIG and IBIG score a candidate in
// popcounts over rows/64 words: over at most one kernel block of rows
// (bitvec.BlockBits) that is one block per column, too little to split (two
// workers ran the 2,000-row benchmark shape at 0.64× of one), so they are
// worth one worker. Naive, ESB and UBB compare rows per candidate and keep n.
// A default — RunContext's workers <= 0, the server's fair share — is capped;
// an explicit count is not.
func UsefulWorkers(a Algorithm, rows, n int) int {
	if (a == AlgBIG || a == AlgIBIG) && rows <= bitvec.BlockBits {
		return min(n, 1)
	}
	return n
}

// RunWorkers is Run with a worker count: 1 is the serial path, 0 selects
// GOMAXPROCS capped by UsefulWorkers, and n > 1 fans candidate scoring across
// n goroutines through the batch-windowed engine (UBB/BIG/IBIG/Naive) or
// ESB's bucket fan-out. The answer set is identical to the serial run's.
func RunWorkers(a Algorithm, ds *data.Dataset, k int, pre *Pre, workers int) (Result, Stats) {
	res, st, _ := RunContext(context.Background(), a, ds, k, pre, workers, nil) // never cancelled
	return res, st
}

// RunContext is RunWorkers under ctx, with tracing. The candidate loop checks
// ctx once per WindowSize candidates, and ESB's skyband scan every 256
// objects; a cancelled run returns ctx's error. The queue-driven algorithms
// (UBB/BIG/IBIG) sample their τ trajectory into sp at window granularity. sp
// may be nil — the span hook adds no allocation to the scoring hot path
// either way (Naive and ESB walk no MaxScore queue, hence no trajectory;
// their Stats still reach the span through the caller).
func RunContext(ctx context.Context, a Algorithm, ds *data.Dataset, k int, pre *Pre, workers int, sp *obs.Span) (Result, Stats, error) {
	if k <= 0 {
		return Result{}, Stats{}, nil
	}
	if pre == nil {
		pre = &Pre{}
	}
	pre.fill(ds, nil, NeedFor(a))
	if workers <= 0 {
		workers = UsefulWorkers(a, ds.Len(), runtime.GOMAXPROCS(0))
	}
	switch a {
	case AlgNaive:
		return scanAll(ctx, ds, k, pre.Queue, pre.Queue.Order, workers)
	case AlgESB:
		cands, st, err := esbCandidates(ctx, ds, k, workers)
		if err != nil {
			return Result{}, st, err
		}
		res, est, err := scanAll(ctx, ds, k, pre.Queue, cands, workers)
		est.Add(st)
		return res, est, err
	case AlgUBB:
		return loop(ctx, ds, k, pre.Queue, pre.Queue.MaxScore, workers, func() Scorer { return ubbScorer{ds: ds} }, sp)
	case AlgBIG:
		return bitmapRun(ctx, a, ds, k, pre.Bitmap, pre.Queue, workers, sp)
	case AlgIBIG:
		return bitmapRun(ctx, a, ds, k, pre.Binned, pre.Queue, workers, sp)
	default:
		panic(fmt.Sprintf("core: unknown algorithm %d", int(a)))
	}
}
