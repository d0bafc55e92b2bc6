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
// The protocol serves one plan, IBIG's (§4.4); a sharded dataset runs the
// paper's other four unsharded, over the coordinator's full rows (repro/tkd).
//
// A query walks the queue in windows through the same core.Frontier seam
// the in-process parallel engine uses. τ is live once k candidates have been
// offered, so the windows ramp: the first is exactly the k candidates that
// fill the heap, each later one doubles up to core.WindowSize.
//
//  1. Heuristic 1 stays global: the frontier stops once the window's best
//     bound cannot beat τ, and per-candidate bounds are rechecked against
//     the live τ before any scatter.
//  2. Bounds phase (once the heap is full): the window fans out
//     to every shard with the global τ *pushed down* as a per-shard
//     residual — τ minus the other shards' row counts — so a shard's
//     threshold-aware |∩Qi| walk can bail out early. A shard answers
//     b_s = |Q_s| − |F_s|, its bound net of the rows sharing no dimension
//     with the candidate; a candidate whose bounds sum to at most τ is
//     pruned without exact scoring (the cross-shard form of Heuristic 2).
//  3. Exact phase: survivors fan out again, each with the budget
//     B − τ, B = Σ b_s, and each in-process shard with its own b_s. A
//     survivor's b_s are all exact: a shard that capped its answer at the
//     residual makes the sum at most τ. So a Local scores from
//     |Q_s| = b_s + |F_s| and does not count it again; a peer, whose index
//     layout the coordinator cannot pin, counts it (Request.Bounds). On
//     every shard score_s = b_s − nonD_s, nonD_s being the comparable rows
//     of Q_s the candidate does not dominate, so the total is at most
//     B − nonD_s for any one shard: a shard whose own nonD_s exceeds the
//     budget stops and answers Pruned (the cross-shard form of Heuristic 3),
//     and one such answer drops the candidate. Otherwise each shard returns
//     its exact partial score; the coordinator sums them and offers them to
//     the answer heap.
//
// The heap is core.AnswerHeap over the global queue's bounds, so it orders
// items as every in-process run does (core.Result): a pruned candidate either
// scores below τ or ties it and comes after every heap member in queue order,
// losing the tie. The answer set, ranks and scores come out byte-identical,
// including ties at the k-th score.
//
// Shards are served in-process (Local, a zero-copy slice of the frozen
// epoch) or by a remote tkdserver peer speaking the small HTTP protocol in
// remote.go / peer.go; the coordinator cannot tell the difference.
package shard

import (
	"context"
	"fmt"

	"repro/internal/bitmapidx"
	"repro/internal/core"
	"repro/internal/data"
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
	// Bounds, when non-empty on ModeScores, holds one entry per candidate:
	// this shard's exact (uncapped) bounds-phase answer |Q_s| − |F_s| for it,
	// so a Local scores from it instead of counting |Q_s| again. A bound is
	// valid only on the index that counted it, so it stays in the process:
	// Remote does not send it and the peer counts |Q_s| itself. A peer lays
	// its slice out from its own dataset (NewLocal), and the two phases may
	// reach different replicas, or one peer before and after a reload, whose
	// datasets differ past the slice. Empty counts |Q_s| here.
	Bounds []int32
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
// counted there, exactly as the epoch's own is. A Partial scores through a
// foreign scorer whose cursor the index pools. Safe for concurrent use; a
// warm Partial takes no lock.
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

// checkBounds is the Request.Bounds shape rule: exact phase only, one per
// candidate or none.
func checkBounds(mode Mode, bounds, cands int) error {
	if bounds == 0 {
		return nil
	}
	if mode != ModeScores {
		return fmt.Errorf("shard: bounds on a bounds request")
	}
	if bounds != cands {
		return fmt.Errorf("shard: %d bounds for %d candidates", bounds, cands)
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
	if err := checkBounds(req.Mode, len(req.Bounds), len(req.Cands)); err != nil {
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
			bound, budget := core.NoBound, core.NoBudget
			if len(req.Bounds) > 0 {
				bound = int(req.Bounds[i])
			}
			if len(req.Budgets) > 0 {
				budget = req.Budgets[i]
			}
			if score, ok := s.Score(c, bound, budget); ok {
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
