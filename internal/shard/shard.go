// Package shard distributes one TKD dataset across row-range shards behind
// a scatter-gather coordinator, keeping answers byte-identical to the
// unsharded run.
//
// The decomposition rests on one identity: dominance counts are additive
// across a row partition. score(o) — how many objects o dominates — equals
// the sum over shards of the number of *shard rows* o dominates, so each
// shard indexes only its own rows (its own binned bitmap index) and scores any candidate shipped to it as raw (values,
// mask), while the coordinator owns the full dataset, the global MaxScore
// queue, and the candidate heap.
//
// The protocol serves one algorithm, IBIG's (§4.4); a sharded dataset runs
// the paper's other four unsharded, over the coordinator's full rows
// (repro/tkd). It has two plans, one per topology.
//
// In-process shards (every backend a Local) run core's serial candidate loop
// (Coordinator.RunLocal), the paper's Algorithm 4 with τ current at every
// candidate, scoring each candidate on one shard after another:
//
//  1. Heuristic 1 is the loop's own: it stops at the first bound that cannot
//     beat τ.
//  2. Bounds: shard i answers whether its bound b_i = |Q_i| − |F_i| — its
//     bound net of the rows sharing no dimension with the candidate — beats
//     τ − Σ_{j<i} b_j − Σ_{j>i} rows_j, so its threshold-aware |∩Qi| walk
//     can bail out early. A "no" holds the bound sum to at most τ and prunes
//     the candidate (the cross-shard form of Heuristic 2).
//  3. Exact scores: each shard scores from its own b_i (it does not count
//     |Q_i| again) under the budget B − τ, B = Σ b_i. On every shard
//     score_i = b_i − nonD_i, nonD_i being the comparable rows of Q_i the
//     candidate does not dominate, so the total is at most B − nonD_i for any
//     one shard: a shard whose own nonD_i exceeds the budget stops, and the
//     candidate is pruned (the cross-shard form of Heuristic 3). Otherwise
//     the partial scores sum to the exact score, offered to the heap.
//
// The loop starts no goroutine: on one machine there is no latency for a
// fan-out to overlap.
//
// Peer shards are reached over the network, so a query batches candidates
// into windows and scatters each window to every shard at once (Run). It
// walks the queue through the core.Frontier seam the in-process parallel
// engine uses, against τ as it stood at the window's start. τ is live once k
// candidates have been offered, so the windows ramp: the first is exactly the
// k candidates that fill the heap, each later one doubles up to
// core.WindowSize.
//
//  1. Heuristic 1 stays global: the frontier stops once the window's best
//     bound cannot beat τ, and per-candidate bounds are rechecked against
//     the window's τ before any scatter.
//  2. Bounds phase (once the heap is full): the window fans out to every
//     shard with τ pushed down as a per-shard residual — τ minus the other
//     shards' row counts. A shard answers b_s, or a cap when it proves b_s
//     at most its residual, and a candidate whose answers sum to at most τ
//     is pruned.
//  3. Exact phase: survivors fan out again, each with the budget B − τ. A
//     peer counts |Q_s| again — a bound is valid only on the index that
//     counted it, and the two phases may reach different replicas — and
//     answers its partial score or Pruned; one Pruned drops the candidate,
//     and the coordinator sums the rest and offers them to the heap.
//
// On either plan the heap is a core.AnswerHeap over the global queue's
// bounds, so it orders items as every in-process run does (core.Result): a
// pruned candidate either scores below τ or ties it and comes after every
// heap member in queue order, losing the tie. The answer set, ranks and
// scores come out byte-identical, including ties at the k-th score.
//
// Shards are served in-process (Local, a zero-copy slice of the frozen
// epoch) or by a remote tkdserver peer speaking the small HTTP protocol in
// remote.go / peer.go; Run cannot tell the difference, and its tests drive it
// over Locals.
package shard

import (
	"context"
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
)

// Mode selects what a shard computes for a batch of candidates.
type Mode int

const (
	// ModeBounds asks for per-candidate upper bounds on the shard's partial
	// score (|∩Qi| over the shard's index, net of the shard rows sharing no
	// dimension with the candidate), threshold-aware against the request's
	// Residual.
	ModeBounds Mode = iota
	// ModeScores asks for exact partial scores.
	ModeScores
)

// Request is one scatter call: a batch of candidates to bound or score
// against a shard's rows.
type Request struct {
	// Mode is bounds or exact scores.
	Mode Mode
	// Tau is the coordinator's global τ at scatter time (-1 while the
	// answer heap is not full). Informational on the exact phase.
	Tau int
	// Residual is the pushed-down per-shard threshold for ModeBounds: the
	// global τ minus the other shards' total row count. When the shard's
	// threshold-aware bound walk proves its bound ≤ Residual, it may report
	// Residual instead of the exact bound — the candidate's bound sum then
	// cannot exceed τ, so the coordinator prunes it either way.
	Residual int
	// Cands are the candidates; values and mask are read, never written.
	Cands []*data.Object
	// Budgets, when non-empty on ModeScores, holds one non-dominated budget
	// per candidate: the candidate's bound sum over the live shards minus τ.
	// A shard whose own count of comparable rows the candidate does not
	// dominate exceeds the budget has proved the total score is below τ and
	// may answer Pruned instead of its partial score. Empty asks for exact
	// scores unconditionally.
	Budgets []int
	// Span is the trace span the call records under; nil is untraced. The
	// coordinator sets each shard's "shard" span here, a ReplicaSet opens its
	// "retry" and "attempt" spans under it and hands each attempt's span on
	// to the replica it calls, and a Remote sends it as the traceparent and
	// stamps the peer's summary into it.
	Span *obs.Span
}

// Pruned is the exact-phase answer for a candidate whose walk stopped on its
// budget. Only a request that carried Budgets may be answered with it.
const Pruned int32 = -1

// Backend is one shard: Partial answers scatter calls, Rows and Fingerprint
// identify what it serves. Implementations must be safe for concurrent
// Partial calls (a serving layer runs many queries at once).
type Backend interface {
	// Rows is the shard's row count.
	Rows() int
	// Fingerprint digests the shard's slice contents (data.Dataset
	// fingerprint of the row range).
	Fingerprint() uint64
	// Partial returns one int32 per candidate: an upper bound (ModeBounds),
	// or the exact partial score or Pruned (ModeScores); the slice is the
	// caller's to keep and modify. ctx bounds the call — a cancelled or
	// expired context abandons the work and returns ctx.Err().
	Partial(ctx context.Context, req *Request) ([]int32, error)
}

// Local is an in-process shard: a core.Prepared over a row-range slice of a
// frozen epoch — its binned index is built, loaded, saved, budgeted and
// counted there, exactly as the epoch's own is. A Partial — or RunLocal,
// which calls no Partial — scores through a foreign scorer whose cursor the
// index pools. Safe for concurrent use; a warm query takes no lock.
type Local struct {
	*core.Prepared
}

// NewLocal returns the shard of rows [lo, hi) of parent — a zero-copy slice
// (see data.Dataset.Slice) that must stay immutable for the shard's lifetime,
// the epoch contract. Its binned index takes the serving default of the whole
// dataset, ξᵢ = min(cᵢ, bitmapidx.ServingBins(N, σ)) with parent's N and σ:
// the point where a candidate's buckets hold one value each depends on the
// value domain, not on how many rows a slice of it happens to hold, and a
// candidate scored on a shard is scored on every shard. It is the one
// constructor the in-process topology and the peer both call, so the two
// cannot lay one row range out differently.
func NewLocal(parent *data.Dataset, lo, hi int) *Local {
	bins := []int{bitmapidx.ServingBins(parent.Len(), parent.MissingRate())}
	return &Local{Prepared: core.NewPrepared(parent.Slice(lo, hi), bins)}
}

// Rows implements Backend.
func (l *Local) Rows() int { return l.Dataset().Len() }

// Fingerprint digests the slice contents: O(1) after the first call, the
// slice of a frozen epoch being frozen (data.Dataset.Freeze).
func (l *Local) Fingerprint() uint64 { return l.Dataset().Fingerprint() }

// checkBudgets is the Request.Budgets shape rule, shared by Local and the
// peer's wire validation: exact phase only, one per candidate or none.
func checkBudgets(mode Mode, budgets, cands int) error {
	if budgets == 0 {
		return nil
	}
	if mode != ModeScores {
		return fmt.Errorf("shard: budgets on a bounds request")
	}
	if budgets != cands {
		return fmt.Errorf("shard: %d budgets for %d candidates", budgets, cands)
	}
	return nil
}

// ctxCheckStride is how many candidates a Local scores between context
// checks — fine enough that cancellation lands within microseconds, coarse
// enough that the atomic load never shows up in a profile.
const ctxCheckStride = 64

// Partial implements Backend.
func (l *Local) Partial(ctx context.Context, req *Request) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := checkBudgets(req.Mode, len(req.Budgets), len(req.Cands)); err != nil {
		return nil, err
	}
	out := make([]int32, len(req.Cands))
	ds := l.Dataset()
	if ds.Len() == 0 {
		return out, nil
	}
	s := core.NewForeignScorer(ds, l.Ensure(core.NeedBinned).Binned)
	defer s.Release()
	switch req.Mode {
	case ModeBounds:
		for i, c := range req.Cands {
			if i%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			b, above := s.BoundAbove(c, req.Residual)
			if !above {
				// Bound ≤ Residual: report the cap — it is still an upper
				// bound on the partial score (as is the row count, for a
				// Residual no coordinator would send), and it forces the
				// coordinator's bound sum to at most τ.
				b = min(req.Residual, ds.Len())
			}
			out[i] = int32(b)
		}
	case ModeScores:
		for i, c := range req.Cands {
			if i%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			budget := core.NoBudget
			if len(req.Budgets) > 0 {
				budget = req.Budgets[i]
			}
			if score, ok := s.Score(c, core.NoBound, budget); ok {
				out[i] = int32(score)
			} else {
				out[i] = Pruned
			}
		}
	default:
		return nil, fmt.Errorf("shard: unknown mode %d", req.Mode)
	}
	return out, nil
}

// Health implements HealthChecker from the frozen slice: a Local can never
// lag, so its answer is its identity.
func (l *Local) Health(context.Context) (HealthInfo, error) {
	return HealthInfo{Rows: l.Rows(), Fingerprint: l.Fingerprint()}, nil
}
