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

// Coordinator drives sharded queries: over in-process shards through the
// serial candidate loop (RunLocal), over any backends through the windowed
// scatter-gather plan (Run). The coordinator-side artifacts — the full
// (frozen) dataset and the global MaxScore queue — live in the holder it is
// made over; it is safe for concurrent calls, and the shards it is handed per
// call do the shard-side work.
type Coordinator struct {
	ds   *data.Dataset
	part *core.Prepared
	met  *Metrics
}

// NewCoordinator wraps the holder of the full dataset's artifacts: the first
// query builds the global queue in it unless someone already has
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
	reqs    []Request // each shard's copy of the request: Residual and Span differ
	results [][]int32
	errs    []error
}

// scatter fans one request to the live backends concurrently — one goroutine
// per shard but the last, whose call runs here — and gathers the per-shard
// result vectors, indexed by position in live and valid until the next
// scatter. A ModeBounds request carries τ pushed down as each
// shard's residual: τ minus the rows of the other live shards.
//
// In a trace the fan-out is one phase span under sp — "scatter" for the
// bounds phase, "gather" for the exact-score phase, matching the stage
// histogram labels — with one "shard" child per live backend, set on that
// shard's request so whatever replica attempts happen beneath it nest there.
func (p *pass) scatter(ctx context.Context, sp *obs.Span, req Request) ([][]int32, error) {
	phase := "gather"
	if req.Mode == ModeBounds {
		phase = "scatter"
	}
	psp := sp.StartChild(phase)
	psp.SetInt("candidates", int64(len(req.Cands)))
	psp.SetInt("shards", int64(len(p.live)))
	call := func(i, s int) {
		ssp := psp.StartChild("shard")
		ssp.SetInt("shard", int64(s))
		p.reqs[i].Span = ssp
		t0 := time.Now()
		res, err := p.backends[s].Partial(ctx, &p.reqs[i])
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
	// Trace, when non-nil, is the span the query runs under: under Run it
	// receives the τ trajectory at window granularity and one "window" child
	// per batch, under which the scatter and gather phases nest; under
	// RunLocal the τ trajectory alone.
	Trace *obs.Span
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

// Run executes one IBIG query over the backends through the windowed
// scatter-gather plan — the peer plan — and returns the answer,
// byte-identical to the unsharded run's, plus coordinator-side stats. ctx
// cancellation aborts the query (and its in-flight scatter calls) with the
// context's error.
//
// When opts.AllowPartial is set and a shard reports *Unavailable (every
// replica down or out of retry budget), the query restarts over the
// remaining shards instead of failing: dominance counts are additive across
// the row partition, so every pruning bound stays a sound upper bound on
// the subset score, and the answer is the exact top-k by number of *live*
// rows dominated. The degradation is reported explicitly via opts.Outcome —
// never silently.
func (c *Coordinator) Run(ctx context.Context, k int, backends []Backend, opts RunOptions) (core.Result, core.Stats, error) {
	down := make([]bool, len(backends))
	for {
		res, st, err := c.runOnce(ctx, k, backends, down, opts.Trace)
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

// RunLocal executes one IBIG query over in-process shards, every one a
// Local, through core's serial candidate loop (core.SerialRun) — the paper's
// loop, with τ current at every candidate — and one cross-shard scorer. It
// starts no goroutine and opens no window: with nothing to overlap, the
// windowed plan's fan-outs and window-start τ only cost (Run is the peer
// plan). The answer is byte-identical to the unsharded run's, and so are
// Stats' Candidates and PrunedH1: a candidate the cross-shard heuristics
// prune scores at most τ, as one the serial heuristics prune does, and its
// missing offer leaves the heap as it was. A Local cannot fail, so the answer
// always covers every row (opts.Outcome) and opts.AllowPartial has nothing to
// degrade. opts.Trace receives the τ trajectory every core.WindowSize
// candidates and nothing else; ctx is checked as often.
func (c *Coordinator) RunLocal(ctx context.Context, k int, shards []*Local, opts RunOptions) (core.Result, core.Stats, error) {
	rows := 0
	for _, l := range shards {
		rows += l.Rows()
	}
	if rows != c.ds.Len() {
		return core.Result{}, core.Stats{}, fmt.Errorf("shard: shards cover %d rows, dataset has %d", rows, c.ds.Len())
	}
	var res core.Result
	var st core.Stats
	if k > 0 && rows > 0 {
		s := newCrossScorer(c.ds, shards)
		defer s.release()
		var err error
		res, st, err = core.SerialRun(ctx, c.ds, k, c.part.Ensure(core.NeedQueue).Queue, s, opts.Trace)
		if err != nil {
			return core.Result{}, st, err
		}
		c.met.pushdowns.Add(int64(st.PrunedH2)) // every H2 prune here is a cross-shard one
	}
	if opts.Outcome != nil {
		*opts.Outcome = Outcome{CoveredRows: rows, TotalRows: rows}
	}
	return res, st, nil
}

// crossScorer is RunLocal's core.Scorer: a candidate's score summed over the
// non-empty shards' foreign scorers, with Heuristics 2 and 3 applied across
// shards against the serial loop's τ.
type crossScorer struct {
	ds     *data.Dataset
	shards []shardScorer
}

// shardScorer is one shard's part of a crossScorer.
type shardScorer struct {
	f     core.ForeignScorer
	after int // rows of the shards after this one
	bound int // the current candidate's bound here, once the bounds pass has set it
}

func newCrossScorer(ds *data.Dataset, shards []*Local) *crossScorer {
	s := &crossScorer{ds: ds, shards: make([]shardScorer, 0, len(shards))}
	after := ds.Len()
	for _, l := range shards {
		if l.Rows() == 0 {
			continue // more shards than rows: nothing to bound or score
		}
		after -= l.Rows()
		s.shards = append(s.shards, shardScorer{f: *core.NewForeignScorer(l.Dataset(), l.Ensure(core.NeedBinned).Binned), after: after})
	}
	return s
}

// release hands every shard's cursor back to its index.
func (s *crossScorer) release() {
	for i := range s.shards {
		s.shards[i].f.Release()
	}
}

// Score implements core.Scorer: steps 2 and 3 of the in-process plan (the
// package doc), the shards asked one after another so that each one's
// threshold is as tight as the earlier ones' bounds allow. Comparisons are not
// reported: a foreign scorer does not count its walk.
func (s *crossScorer) Score(o, tau int) (int, core.ScoreResult, int64) {
	c := s.ds.Obj(o)
	if tau < 0 { // the heap is not full: nothing prunes
		score := 0
		for i := range s.shards {
			p, _ := s.shards[i].f.Score(c, core.NoBound, core.NoBudget)
			score += p
		}
		return score, core.Scored, 0
	}
	sum := 0
	for i := range s.shards {
		sh := &s.shards[i]
		b, above := sh.f.BoundAbove(c, tau-sum-sh.after)
		if !above {
			return 0, core.PrunedH2, 0
		}
		sh.bound, sum = b, sum+b
	}
	score := 0
	for i := range s.shards {
		p, ok := s.shards[i].f.Score(c, s.shards[i].bound, sum-tau)
		if !ok {
			return 0, core.PrunedH3, 0
		}
		score += p
	}
	return score, core.Scored, 0
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

// runOnce is one full pass over the live shards (the non-down subset), traced
// under sp (RunOptions.Trace).
func (c *Coordinator) runOnce(ctx context.Context, k int, backends []Backend, down []bool, sp *obs.Span) (core.Result, core.Stats, error) {
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
	p.results = make([][]int32, len(p.live))
	p.errs = make([]error, len(p.live))

	// size is the next window's width. Pruning against τ starts once k
	// candidates have been offered: the first window is exactly those k, and
	// each later one doubles — every candidate past the k-th meets a live τ,
	// at a logarithmic number of extra round trips.
	size := min(k, core.WindowSize)
	queue := c.part.Ensure(core.NeedQueue).Queue
	fr := core.NewFrontier(queue)

	heap := core.NewAnswerHeap(k, queue.MaxScore)
	// ids holds the window's candidates still in play, cands their objects
	// and budgets their exact-phase budgets, all in window order.
	ids := make([]int32, 0, core.WindowSize)
	cands := make([]*data.Object, 0, core.WindowSize)
	budgets := make([]int, 0, core.WindowSize)

	for {
		if err := ctx.Err(); err != nil {
			return core.Result{}, st, err
		}
		tau := heap.Tau()
		sp.SampleTau(fr.Pos(), tau)
		fr.SetTau(tau)
		_, window, pruned, ok := fr.NextWindow(size)
		st.PrunedH1 += pruned
		if !ok {
			break
		}
		size = min(2*size, core.WindowSize)
		st.Windows++
		wsp := sp.StartChild("window")
		wsp.SetInt("window", int64(st.Windows))
		wsp.SetInt("tau", int64(tau))
		wsp.SetInt("candidates", int64(len(window)))

		ids, cands = ids[:0], cands[:0]
		for _, id := range window {
			// Per-candidate Heuristic 1 against the window-start τ: the
			// serial loop would have stopped at or before such a candidate,
			// so skipping its scatter is free and sound. (MaxScore bounds the
			// full-data score, which bounds any subset score, so this stays
			// sound on a degraded pass.)
			if tau >= 0 && queue.MaxScore[id] <= tau {
				st.PrunedH1++
				continue
			}
			ids = append(ids, id)
			cands = append(cands, c.ds.Obj(int(id)))
		}

		budgets = budgets[:0]
		if tau >= 0 && len(cands) > 0 {
			// Bounds phase: push τ down as per-shard residuals and prune
			// candidates whose per-shard bound sum cannot beat it. Only the
			// Heuristic-1 survivors scatter — the dropped ones would cost a
			// bound walk per shard (and wire payload per candidate for
			// remote shards) just to be ignored.
			res, err := p.scatter(ctx, wsp, Request{Mode: ModeBounds, Tau: tau, Cands: cands})
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
				ids[n], cands[n] = ids[i], cands[i]
				budgets = append(budgets, sum-tau)
				n++
			}
			c.met.pushdowns.Add(int64(len(cands) - n))
			ids, cands = ids[:n], cands[:n]
		}

		// Exact phase over the survivors. A candidate any shard answered
		// Pruned scores below the window-start τ: its offer would be a no-op,
		// exactly as the serial loop's Heuristic 3 prune is.
		if len(cands) > 0 {
			scores, err := p.scatter(ctx, wsp, Request{Mode: ModeScores, Tau: tau, Cands: cands, Budgets: budgets})
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
	sp.SampleTau(fr.Pos(), heap.Tau())
	return heap.Result(), st, nil
}
