package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/obs"
)

// Coordinator drives scatter-gather queries over a fixed set of shard
// backends. The coordinator-side artifacts — the full (frozen) dataset and
// the global MaxScore queue — live in the holder it is made over; it is safe
// for concurrent Run calls, and the backends it is handed per call do the
// shard-side work.
type Coordinator struct {
	ds   *data.Dataset
	part *core.Prepared
	met  *Metrics
}

// NewCoordinator wraps the holder of the full dataset's artifacts: the first
// queue-driven query builds the global queue in it unless someone already has
// (a caller warming up beside the shards' index builds, a predecessor's queue
// installed), and every later one reads it with an atomic load. met may be
// nil (no metrics collected).
func NewCoordinator(part *core.Prepared, met *Metrics) *Coordinator {
	if met == nil {
		met = NewMetrics(0)
	}
	return &Coordinator{ds: part.Dataset(), part: part, met: met}
}

// pass is the state of one runOnce attempt: the shards it covers and the
// scatter buffers it reuses from window to window. Backends only read a
// request for the duration of the call (ReplicaSet joins its hedge
// stragglers), so nothing here is copied per scatter.
type pass struct {
	met      *Metrics
	backends []Backend
	live     []int // indices of the non-down backends
	others   []int // per live shard: rows held by the other live shards

	wg      sync.WaitGroup
	reqs    []Request // each shard's copy of the request: Residual or Bounds differ
	results [][]int32
	// bounds holds each live shard's bounds-phase answers for the exact
	// phase's candidates, compacted in place in the bounds phase's results.
	bounds [][]int32
	errs   []error
}

// scatter fans one request to the live backends concurrently — one goroutine
// per shard but the last, whose call runs here — and gathers the per-shard
// result vectors, indexed by position in live and valid until the next
// scatter. A ModeBounds request carries τ pushed down as each
// shard's residual: τ minus the rows of the other live shards; a ModeScores
// one carries each shard's own bounds, when bounds is non-nil.
//
// In a trace the fan-out is one phase span — "scatter" for the bounds phase,
// "gather" for the exact-score phase, matching the stage histogram labels —
// with one "shard" child per live backend, each carrying whatever replica
// attempts happen beneath it.
func (p *pass) scatter(ctx context.Context, req Request, bounds [][]int32) ([][]int32, error) {
	phase := "gather"
	if req.Mode == ModeBounds {
		phase = "scatter"
	}
	psp := obs.SpanFromContext(ctx).StartChild(phase)
	psp.SetInt("candidates", int64(len(req.Cands)))
	psp.SetInt("shards", int64(len(p.live)))
	call := func(i, s int) {
		ssp := psp.StartChild("shard")
		ssp.SetInt("shard", int64(s))
		t0 := time.Now()
		res, err := p.backends[s].Partial(obs.ContextWithSpan(ctx, ssp), &p.reqs[i])
		p.met.observeShard(s, time.Since(t0))
		if err == nil && len(res) != len(req.Cands) {
			err = fmt.Errorf("shard %d returned %d results for %d candidates", s, len(res), len(req.Cands))
		}
		if err != nil {
			ssp.SetStr("error", err.Error())
		}
		ssp.End()
		p.results[i], p.errs[i] = res, err
	}
	for i, s := range p.live {
		p.reqs[i] = req
		if req.Mode == ModeBounds {
			p.reqs[i].Residual = req.Tau - p.others[i]
		} else if bounds != nil {
			p.reqs[i].Bounds = bounds[i]
		}
		if i == len(p.live)-1 {
			call(i, s) // this goroutine would only wait: the last call is its own
			continue
		}
		p.wg.Add(1)
		go func(i, s int) {
			defer p.wg.Done()
			call(i, s)
		}(i, s)
	}
	p.wg.Wait()
	psp.End()
	p.met.fanout.Add(int64(len(p.live)))
	return p.results, errors.Join(p.errs...)
}

// candidatesFor returns what a non-queue plan scores, computed
// coordinator-side on the full data: Naive every object, ESB the
// bucket-local k-skyband survivors, with their share of st. The answer heap
// orders items totally, so the order they are offered in does not matter.
func (c *Coordinator) candidatesFor(alg core.Algorithm, k int, queue *core.MaxScoreQueue, st *core.Stats) []int32 {
	if alg == core.AlgNaive {
		return queue.Order
	}
	cands, est := core.ESBCandidates(c.ds, k, 1)
	st.Add(est)
	return cands
}

// RunOptions tunes one Run call's failure behaviour.
type RunOptions struct {
	// AllowPartial answers over the live row-ranges when a shard has no
	// usable replica, instead of failing the query. The answer is still
	// exact — for the rows that are reachable — and Outcome reports the
	// coverage explicitly. Default (false) is fail-closed: any unreachable
	// shard fails the query with a typed *Unavailable error, preserving the
	// byte-identical guarantee.
	AllowPartial bool
	// Outcome, when non-nil, receives the query's coverage report.
	Outcome *Outcome
}

// Outcome reports how a query was answered: fully, or degraded to a subset
// of the row-ranges.
type Outcome struct {
	// Degraded marks an AllowPartial answer computed without every shard.
	Degraded bool
	// CoveredRows is how many rows the answer's scores actually count;
	// TotalRows is the full dataset. Equal unless Degraded.
	CoveredRows int
	TotalRows   int
	// DownShards lists the shard indices that were skipped.
	DownShards []int
}

// Run executes one query over the backends and returns the answer — byte-
// identical to the unsharded algorithm's — plus coordinator-side stats. ctx
// cancellation aborts the query (and its in-flight scatter calls) with the
// context's error.
//
// When opts.AllowPartial is set and a shard reports *Unavailable (every
// replica down or out of retry budget), the query restarts over the
// remaining shards instead of failing: dominance counts are additive across
// the row partition, so every pruning bound stays a sound upper bound on
// the subset score, and the answer is the exact top-k by number of *live*
// rows dominated. The ESB skyband prune is subset-sound too: a same-bucket
// dominator dominates everything its victim dominates (masks are equal, so
// the comparison dimensions coincide), hence outscores it on any row
// subset. The degradation is reported explicitly via opts.Outcome — never
// silently.
func (c *Coordinator) Run(ctx context.Context, alg core.Algorithm, k int, backends []Backend, opts RunOptions) (core.Result, core.Stats, error) {
	down := make([]bool, len(backends))
	for {
		res, st, err := c.runOnce(ctx, alg, k, backends, down)
		if err == nil {
			if opts.Outcome != nil {
				*opts.Outcome = c.outcome(backends, down)
			}
			if anyDown(down) {
				c.met.degraded.Add(1)
			}
			return res, st, nil
		}
		if ce := ctx.Err(); ce != nil {
			return core.Result{}, st, ce
		}
		var u *Unavailable
		if !opts.AllowPartial || !errors.As(err, &u) ||
			u.Shard < 0 || u.Shard >= len(backends) || down[u.Shard] {
			return core.Result{}, st, err
		}
		down[u.Shard] = true
		if !anyLive(down) {
			return core.Result{}, st, fmt.Errorf("shard: no live shard remains: %w", err)
		}
		// Restart over the remaining live shards. Partial sums from the
		// aborted attempt are discarded wholesale — mixing pre- and
		// post-failure coverage would make the scores incomparable.
	}
}

func anyDown(down []bool) bool {
	for _, d := range down {
		if d {
			return true
		}
	}
	return false
}

func anyLive(down []bool) bool {
	for _, d := range down {
		if !d {
			return true
		}
	}
	return false
}

// outcome builds the coverage report for a finished query.
func (c *Coordinator) outcome(backends []Backend, down []bool) Outcome {
	o := Outcome{TotalRows: c.ds.Len(), CoveredRows: c.ds.Len()}
	for s, d := range down {
		if d {
			o.Degraded = true
			o.CoveredRows -= backends[s].Rows()
			o.DownShards = append(o.DownShards, s)
		}
	}
	return o
}

// runOnce is one full pass over the live shards (the non-down subset).
func (c *Coordinator) runOnce(ctx context.Context, alg core.Algorithm, k int, backends []Backend, down []bool) (core.Result, core.Stats, error) {
	var st core.Stats
	p := &pass{met: c.met, backends: backends, live: make([]int, 0, len(backends))}
	liveRows := 0
	totalRows := 0
	for s, b := range backends {
		totalRows += b.Rows()
		if !down[s] {
			p.live = append(p.live, s)
			liveRows += b.Rows()
		}
	}
	st.Workers = len(p.live)
	if k <= 0 || c.ds.Len() == 0 {
		return core.Result{}, st, nil
	}
	if totalRows != c.ds.Len() {
		return core.Result{}, st, fmt.Errorf("shard: backends cover %d rows, dataset has %d", totalRows, c.ds.Len())
	}
	p.others = make([]int, len(p.live))
	for i, s := range p.live {
		p.others[i] = liveRows - backends[s].Rows()
	}
	p.reqs = make([]Request, len(p.live))
	vecs := make([][]int32, 2*len(p.live))
	p.results, p.bounds = vecs[:len(p.live)], vecs[len(p.live):]
	p.errs = make([]error, len(p.live))

	useQueue := alg == core.AlgUBB || alg == core.AlgBIG || alg == core.AlgIBIG
	useBounds := alg == core.AlgBIG || alg == core.AlgIBIG
	var fr *core.Frontier
	var static []int32
	// size is the next window's width. The exhaustive plans have nothing to
	// prune, so they scatter full windows. The queue-driven plans prune
	// against τ, which is only live once k candidates have been offered: the
	// first window is exactly those k, and each later one doubles — every
	// candidate past the k-th meets a live τ, at a logarithmic number of
	// extra round trips.
	size := core.WindowSize
	queue := c.part.Ensure(core.NeedQueue).Queue
	if useQueue {
		fr = core.NewFrontier(queue)
		size = min(k, core.WindowSize)
	} else {
		static = c.candidatesFor(alg, k, queue, &st)
	}

	heap := core.NewAnswerHeap(k, queue)
	// ids holds the window's candidates still in play, cands their objects
	// and budgets their exact-phase budgets, all in window order.
	ids := make([]int32, 0, core.WindowSize)
	cands := make([]*data.Object, 0, core.WindowSize)
	budgets := make([]int, 0, core.WindowSize)
	pos := 0

	// sp is the engine span riding ctx (nil when tracing is off): it receives
	// the τ trajectory at window granularity — the sharded counterpart of the
	// serial engine's sampling — and one "window" child per batch under which
	// the scatter/gather phases nest.
	sp := obs.SpanFromContext(ctx)

	for {
		if err := ctx.Err(); err != nil {
			return core.Result{}, st, err
		}
		tau := heap.Tau()
		if sp != nil {
			if useQueue {
				sp.SampleTau(fr.Pos(), tau)
			} else {
				sp.SampleTau(pos, tau)
			}
		}
		var window []int32
		if useQueue {
			fr.SetTau(tau)
			_, w, pruned, ok := fr.NextWindow(size)
			st.PrunedH1 += pruned
			if !ok {
				break
			}
			window = w
			size = min(2*size, core.WindowSize)
		} else {
			if pos >= len(static) {
				break
			}
			end := min(pos+size, len(static))
			window = static[pos:end]
			pos = end
		}
		st.Windows++
		wsp := sp.StartChild("window")
		wsp.SetInt("window", int64(st.Windows))
		wsp.SetInt("tau", int64(tau))
		wsp.SetInt("candidates", int64(len(window)))
		wctx := obs.ContextWithSpan(ctx, wsp)

		ids, cands = ids[:0], cands[:0]
		for _, id := range window {
			// Per-candidate Heuristic 1 against the window-start τ: the
			// serial loop would have stopped at or before such a candidate,
			// so skipping its scatter is free and sound. (MaxScore bounds the
			// full-data score, which bounds any subset score, so this stays
			// sound on a degraded pass.)
			if useQueue && tau >= 0 && queue.MaxScore[id] <= tau {
				st.PrunedH1++
				continue
			}
			ids = append(ids, id)
			cands = append(cands, c.ds.Obj(int(id)))
		}

		budgets = budgets[:0]
		var bounds [][]int32 // each shard's answers for the survivors, nil without a bounds phase
		if useBounds && tau >= 0 && len(cands) > 0 {
			// Bounds phase: push τ down as per-shard residuals and prune
			// candidates whose per-shard bound sum cannot beat it. Only the
			// Heuristic-1 survivors scatter — the dropped ones would cost a
			// bound walk per shard (and wire payload per candidate for
			// remote shards) just to be ignored.
			res, err := p.scatter(wctx, Request{Alg: alg, Mode: ModeBounds, Tau: tau, Cands: cands}, nil)
			if err != nil {
				wsp.End()
				return core.Result{}, st, err
			}
			n := 0
			for i := range cands {
				sum := 0
				for s := range res {
					sum += int(res[s][i])
				}
				if sum <= tau {
					st.Candidates++
					st.PrunedH2++
					continue
				}
				// Each shard's exact score is its bound minus the comparable
				// rows it finds not dominated, so the total is at most sum minus
				// any one shard's count: a shard that counts more than
				// sum − τ has proved the total below τ and stops there.
				//
				// Every bound of a survivor is exact: a shard that capped its
				// answer at its residual τ − others holds the sum to at most τ,
				// an honest shard's answer being within its rows. So each
				// shard gets its own answer back, and a Local scores from it
				// instead of counting |Q_s| again (Request.Bounds).
				ids[n], cands[n] = ids[i], cands[i]
				for s := range res {
					res[s][n] = res[s][i]
				}
				budgets = append(budgets, sum-tau)
				n++
			}
			c.met.pushdowns.Add(int64(len(cands) - n))
			ids, cands = ids[:n], cands[:n]
			for s := range res {
				p.bounds[s] = res[s][:n]
			}
			bounds = p.bounds
		}

		// Exact phase over the survivors. A candidate any shard answered
		// Pruned scores below the window-start τ: its offer would be a no-op,
		// exactly as the serial loop's Heuristic 3 prune is.
		if len(cands) > 0 {
			scores, err := p.scatter(wctx, Request{Alg: alg, Mode: ModeScores, Tau: tau, Cands: cands, Budgets: budgets}, bounds)
			if err != nil {
				wsp.End()
				return core.Result{}, st, err
			}
			for i, id := range ids {
				st.Candidates++
				sum, pruned := 0, false
				for s := range scores {
					pruned = pruned || scores[s][i] == Pruned
					sum += int(scores[s][i])
				}
				if pruned {
					st.PrunedH3++
					continue
				}
				st.Scored++
				heap.Offer(core.Item{Index: int(id), ID: cands[i].ID, Score: sum})
			}
		}
		wsp.End()
	}
	if sp != nil {
		endPos := pos
		if useQueue {
			endPos = fr.Pos()
		}
		sp.SampleTau(endPos, heap.Tau())
	}
	return heap.Result(), st, nil
}
