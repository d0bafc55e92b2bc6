package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/tkd"
)

// The batch scheduler. A query dispatches on the goroutine that submits it,
// under the scheduler's lock: it joins the group of an identical query (same
// k and allow_partial) that still waits for its admission grant, or it takes
// one of maxBatch in-flight tokens, opens a group of its own, takes its place
// in the admission line and hands the group to a goroutine of its own. Each
// group executes once and fans its answer out to every waiter, so identical
// queries coalesce exactly when they queue behind running work, and a waiter
// whose deadline fires answers at once while its group runs on for the
// others. Every query runs IBIG, the one plan the server serves (the handler
// refuses the other four). Distinct queries run side by side over the same
// warm core.Pre and decompressed-column cache. How many workers a group gets,
// and when, is the admission controller's decision (admission.go),
// server-wide across datasets.
//
// Lifecycle: a scheduler retires through drainStop (dataset eviction,
// graceful server shutdown), which refuses new submits and returns once every
// group already dispatched has answered — no accepted query is ever dropped,
// and no goroutine the scheduler started outlives it. The server's done
// channel (Close) is the immediate teardown used by tests.

// queryKey identifies one executable query shape; requests with equal keys
// that wait together share one execution. AllowPartial is part of the key: a
// degradation-tolerant query and a fail-closed one must not share an
// execution, because under a shard outage they want different answers.
type queryKey struct {
	K            int
	AllowPartial bool
}

// reply is what a waiter gets back.
type reply struct {
	res       tkd.Result
	st        tkd.Stats
	deg       tkd.Degradation
	err       error
	coalesced bool // answered by another identical query's execution
	batch     int  // requests the execution answered
	granted   int  // worker goroutines the admission controller granted
}

type request struct {
	ctx   context.Context // the waiter's deadline/disconnect signal
	reply chan reply      // buffered(1); the group never blocks on it
	sp    *obs.Span       // the waiter's root span (nil = untraced)
	enq   time.Time       // when the waiter submitted
}

// group is one execution's waiters: the request that opened it and those
// that joined it before it started.
type group struct {
	key  queryKey
	reqs []*request
}

// errSchedulerDraining is returned to submits that race a drainStop; handlers map it
// to 503 so clients retry elsewhere (or see the eviction as a 404 on the
// next attempt).
var errSchedulerDraining = fmt.Errorf("server: dataset is draining")

// errShuttingDown is returned to waiters the server's Close cut off.
var errShuttingDown = fmt.Errorf("server: shutting down")

type scheduler struct {
	ds   *tkd.Dataset
	adm  *admission
	met  *datasetMetrics
	done chan struct{} // server-wide immediate shutdown (Server.Close)

	// inflight holds one token per group dispatched and not yet answered (a
	// request that joins a pending group takes none), so at maxBatch of them
	// a submit that would open another waits.
	inflight chan struct{}

	// pending maps a key to its dispatched group that has not started
	// executing; each group's goroutine removes itself once it holds its
	// grant. running counts the groups dispatched and not yet answered, and
	// idle closes once the scheduler is draining and running is 0.
	mu       sync.Mutex
	pending  map[queryKey]*group
	running  int
	draining atomic.Bool // written under mu
	idle     chan struct{}
}

// maxBatch bounds the groups in flight per dataset.
const maxBatch = 64

func newScheduler(ds *tkd.Dataset, adm *admission, met *datasetMetrics, done chan struct{}) *scheduler {
	return &scheduler{
		ds:       ds,
		adm:      adm,
		met:      met,
		done:     done,
		inflight: make(chan struct{}, maxBatch),
		pending:  make(map[queryKey]*group),
		idle:     make(chan struct{}),
	}
}

// drain refuses every later submit with errSchedulerDraining; the groups
// already dispatched run on. Safe to call multiple times.
func (s *scheduler) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining.Load() {
		s.draining.Store(true)
		if s.running == 0 {
			close(s.idle)
		}
	}
}

// drainStop retires the scheduler gracefully: it drains and returns once
// every group dispatched has answered its waiters (or the server was torn
// down via Close). Safe to call multiple times and concurrently.
func (s *scheduler) drainStop() {
	s.drain()
	select {
	case <-s.idle:
	case <-s.done:
	}
}

// submit dispatches one query and waits for its reply; ctx cancellation (or
// server shutdown) abandons the wait — the group still finishes the query for
// its other waiters and the buffered reply channel is collected by the
// garbage collector. sp, when non-nil, receives the queue-wait span and the
// execution spans.
func (s *scheduler) submit(ctx context.Context, key queryKey, sp *obs.Span) (reply, error) {
	req := &request{ctx: ctx, reply: make(chan reply, 1), sp: sp, enq: time.Now()}
	// The first pass joins or refuses without a token. A request that needs a
	// group of its own waits for a token outside the lock and places itself
	// again, since an identical query may have opened the group meanwhile.
	for token := false; ; token = true {
		s.mu.Lock()
		g, joined := s.pending[key]
		switch {
		case s.draining.Load():
			s.mu.Unlock()
			if token {
				<-s.inflight
			}
			return reply{}, errSchedulerDraining
		case joined:
			g.reqs = append(g.reqs, req)
			s.mu.Unlock()
			if token {
				<-s.inflight
			}
			return s.await(ctx, req)
		case token:
			g = &group{key: key, reqs: []*request{req}}
			s.pending[key] = g
			s.running++
			s.mu.Unlock()
			want := 0 // the fair share
			if core.UsefulWorkers(core.AlgIBIG, s.ds.Len(), s.adm.capacity) == 1 {
				want = 1 // the rest of its fair share stays free for the next query
			}
			go s.run(g, s.adm.enter(want))
			return s.await(ctx, req)
		}
		s.mu.Unlock()
		select {
		case s.inflight <- struct{}{}:
		case <-ctx.Done():
			return reply{}, ctx.Err()
		case <-s.done:
			return reply{}, errShuttingDown
		}
	}
}

// await waits for req's reply.
func (s *scheduler) await(ctx context.Context, req *request) (reply, error) {
	select {
	case r := <-req.reply:
		return r, nil
	case <-ctx.Done():
		return reply{}, ctx.Err()
	case <-s.done:
		// A graceful Shutdown closes done only after the drain answered every
		// dispatched group, so the answer may already sit in the buffered
		// reply channel alongside the closed done — prefer it: an accepted
		// and served query must not turn into a shutdown error by select
		// randomness.
		select {
		case r := <-req.reply:
			return r, nil
		default:
			return reply{}, errShuttingDown
		}
	}
}

// run executes one group once its admission grant is held and fans the
// answer out to every waiter, joiners included.
func (s *scheduler) run(grp *group, g *grant) {
	defer s.finish()
	granted := g.wait()
	s.mu.Lock()
	delete(s.pending, grp.key)
	reqs, key := grp.reqs, grp.key
	s.mu.Unlock()
	// The execution's context is the union of its waiters': it cancels only
	// once EVERY waiter's deadline fired or client disconnected. One
	// impatient client in a coalesced group must not kill the answer the
	// patient ones are still waiting for. Cancelling aborts the run within a
	// window of candidates — the engine checks it per window, a sharded
	// IBIG run drops its in-flight shard RPCs too — so TopK returns the
	// context's error and the grant is released at once. Each waiter's
	// context counts itself out through an AfterFunc — no goroutine waits on
	// it — and every registration is stopped when the execution ends.
	execCtx, cancel := context.WithCancel(context.Background())
	var waiting atomic.Int64
	waiting.Store(int64(len(reqs)))
	gone := func() {
		if waiting.Add(-1) == 0 {
			cancel()
		}
	}
	stops := make([]func() bool, len(reqs))
	for i, r := range reqs {
		stops[i] = context.AfterFunc(r.ctx, gone)
	}
	start := time.Now()
	// Every waiter records its own queue wait — from enqueue to the moment
	// its group holds its slots and starts executing, so queue ends where
	// execute begins. The execution itself runs once, as a span under the
	// first traced waiter's trace; the other waiters adopt the completed span
	// by reference, so a coalesced reply's trace still shows exactly what
	// ran.
	var exec *obs.Span
	for _, r := range reqs {
		r.sp.ChildAt("queue", r.enq, start)
		if exec == nil {
			exec = r.sp.StartChild("execute")
		}
	}
	exec.SetInt("batch", int64(len(reqs)))
	exec.SetInt("granted", int64(granted))
	var st tkd.Stats
	var deg tkd.Degradation
	opts := []tkd.Option{ // the library's default algorithm is IBIG
		tkd.WithWorkers(granted),
		tkd.WithStats(&st),
		tkd.WithContext(obs.ContextWithSpan(execCtx, exec)),
	}
	if key.AllowPartial {
		opts = append(opts, tkd.WithAllowPartial(&deg))
	}
	res, err := s.ds.TopK(key.K, opts...)
	exec.End()
	for _, stop := range stops {
		stop()
	}
	cancel()
	s.adm.release(granted)
	s.met.record(st, len(reqs), err)
	if n := len(reqs) - 1; n > 0 {
		s.met.coalesced.Add(int64(n))
	}
	adopted := false
	for i, r := range reqs {
		if r.sp != nil && exec != nil {
			if adopted {
				r.sp.Adopt(exec)
			}
			adopted = true
		}
		r.reply <- reply{
			res:       res,
			st:        st,
			deg:       deg,
			err:       err,
			coalesced: i > 0,
			batch:     len(reqs),
			granted:   granted,
		}
	}
}

// finish retires one answered group: its token goes back, and the last group
// of a draining scheduler lets drainStop return.
func (s *scheduler) finish() {
	<-s.inflight
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	if s.running == 0 && s.draining.Load() {
		close(s.idle)
	}
}
