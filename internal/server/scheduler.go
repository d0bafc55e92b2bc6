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
// one of maxBatch in-flight tokens, opens a group of its own and takes its
// place in the admission line. The submitter that opened a group hosts it:
// it waits for the grant on its own goroutine and, when nobody joined
// meanwhile — the common case — executes the query there, under its own
// context, with no goroutine, union context or reply channel of the
// scheduler's. A group that has joiners when its grant arrives goes to a
// goroutine of its own, which executes it once under the union of its
// waiters' contexts and fans the answer out to every waiter, so identical
// queries coalesce exactly when they queue behind running work, and a
// waiter whose deadline fires answers at once while its group runs on for
// the others. A group that every waiter left while it was still in line
// leaves the line and hands its token back without running. Every query
// runs IBIG, the one plan the server serves (the handler refuses the other
// four). Distinct queries run side by side over the same warm core.Pre. How
// many workers a group gets, and when, is the admission controller's decision
// (admission.go), server-wide across datasets.
//
// Lifecycle: a scheduler retires through drainStop (dataset eviction,
// graceful server shutdown), which refuses new submits and returns once every
// group already dispatched has answered or been left by every waiter — no
// accepted query a client still awaits is ever dropped, and no goroutine the
// scheduler started outlives it. The server's done channel (Close) is the
// immediate teardown used by tests.

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
	ctx context.Context // the waiter's deadline/disconnect signal
	// reply is buffered(1), so the group never blocks on it. Only a request
	// a group's goroutine answers has one: a host that executes its group
	// itself, or left it in line, has none.
	reply chan reply
	sp    *obs.Span // the waiter's root span (nil = untraced)
	enq   time.Time // when the waiter submitted
}

// group is one execution's waiters: the request that opened it (its host,
// reqs[0]) and those that joined it before it started.
type group struct {
	key   queryKey
	reqs  []*request
	grant *grant // the group's place in the admission line
	// host and first hold the host's request and reqs' first slot, so a
	// group nobody joins is one allocation.
	host  request
	first [1]*request

	// Set once the group goes to a goroutine of its own (unite), under mu:
	// ctx is the union of its waiters' contexts, cancelled once waiting —
	// the waiters not yet gone — falls to 0; stops unregisters each
	// waiter's count-out.
	ctx     context.Context
	cancel  context.CancelFunc
	waiting int
	stops   []func() bool
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

	// inflight holds one token per group dispatched and not yet retired —
	// answered, or left by every waiter — (a request that joins a pending
	// group takes none), so at maxBatch of them a submit that would open
	// another waits.
	inflight chan struct{}

	// pending maps a key to its dispatched group that has not started
	// executing; a group leaves it once it holds its grant, or once every
	// waiter has gone. running counts the groups dispatched and not yet
	// retired, and idle closes once the scheduler is draining and running is
	// 0.
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
// server shutdown) abandons the wait — a group with other waiters still
// finishes the query for them, and one with none leaves the admission line.
// sp, when non-nil, receives the queue-wait span and the execution spans.
func (s *scheduler) submit(ctx context.Context, key queryKey, sp *obs.Span) (reply, error) {
	enq := time.Now()
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
			req := &request{ctx: ctx, reply: make(chan reply, 1), sp: sp, enq: enq}
			g.reqs = append(g.reqs, req)
			if g.cancel != nil {
				s.enlist(g, req) // the group already waits on a goroutine of its own
			}
			s.mu.Unlock()
			if token {
				<-s.inflight
			}
			return s.await(ctx, req)
		case token:
			want := 0 // the fair share
			if core.UsefulWorkers(core.AlgIBIG, s.ds.Len(), s.adm.capacity) == 1 {
				want = 1 // the rest of its fair share stays free for the next query
			}
			g = &group{key: key, grant: s.adm.enter(want), host: request{ctx: ctx, sp: sp, enq: enq}}
			g.first[0] = &g.host
			g.reqs = g.first[:]
			s.pending[key] = g
			s.running++
			s.mu.Unlock()
			return s.host(ctx, g)
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

// host waits for the grant of the group g its caller opened and, if nobody
// joined it meanwhile, executes it on the calling goroutine under ctx. A
// group with joiners goes to a goroutine of its own (run), and the host
// waits for its reply like the joiners do.
func (s *scheduler) host(ctx context.Context, g *group) (reply, error) {
	select {
	case <-g.grant.ready: // held at once, the common case: nothing to wait on
	default:
		select {
		case <-g.grant.ready:
		case <-ctx.Done():
			return reply{}, s.leave(g, ctx.Err())
		case <-s.done:
			return reply{}, s.leave(g, errShuttingDown)
		}
	}
	s.mu.Lock()
	s.unpend(g)
	if len(g.reqs) > 1 {
		g.host.reply = make(chan reply, 1)
		s.unite(g, g.reqs)
		s.mu.Unlock()
		go s.run(g)
		return s.await(ctx, &g.host)
	}
	s.mu.Unlock()
	defer s.finish()
	rep, _ := s.execute(ctx, g)
	return rep, nil
}

// leave takes g's host out of the group it still waits in line with, for
// the reason err, which it returns. A group nobody else waits on leaves the
// line with it (retire); one with joiners goes to a goroutine of its own,
// which waits for the grant on their behalf.
func (s *scheduler) leave(g *group, err error) error {
	s.mu.Lock()
	if len(g.reqs) > 1 {
		s.unite(g, g.reqs[1:])
		s.mu.Unlock()
		go s.run(g)
		return err
	}
	s.unpend(g)
	s.mu.Unlock()
	s.retire(g)
	return err
}

// retire hands back what a group that nobody waits for holds: its grant is
// withdrawn from the line — or its slots released, had they landed at the
// same moment — and its token goes back. g is no longer pending.
func (s *scheduler) retire(g *group) {
	defer s.finish()
	s.adm.withdraw(g.grant)
}

// unpend removes g from pending unless an identical group has taken its
// key since; s.mu is held.
func (s *scheduler) unpend(g *group) {
	if s.pending[g.key] == g {
		delete(s.pending, g.key)
	}
}

// unite makes g's context the union of the waiters': it is cancelled once
// each of them is done. One impatient client in a coalesced group must not
// kill the answer the patient ones are still waiting for. Each waiter's
// context counts itself out through an AfterFunc — no goroutine waits on it
// — and a waiter that joins later is enlisted as it joins. s.mu is held.
func (s *scheduler) unite(g *group, waiters []*request) {
	g.ctx, g.cancel = context.WithCancel(context.Background())
	for _, r := range waiters {
		s.enlist(g, r)
	}
}

// enlist counts r among g's waiters until r's context is done; s.mu is held.
func (s *scheduler) enlist(g *group, r *request) {
	g.waiting++
	g.stops = append(g.stops, context.AfterFunc(r.ctx, func() { s.gone(g) }))
}

// gone counts one of g's waiters out. The last one takes g out of pending,
// so no later query joins a group nobody waits for, and cancels its
// context: a group in line withdraws (run), a running one aborts within a
// window of candidates — a sharded IBIG run drops its in-flight shard RPCs
// too — and hands its grant back at once.
func (s *scheduler) gone(g *group) {
	s.mu.Lock()
	g.waiting--
	last := g.waiting == 0
	if last {
		s.unpend(g)
	}
	s.mu.Unlock()
	if last {
		g.cancel()
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

// run is the goroutine of a group its host handed over (unite has run): it
// waits for the grant, executes the group once under the union of its
// waiters' contexts and fans the answer out to every waiter, joiners
// included. A group whose every waiter has gone before it could start is
// retired instead, as leave retires a lone one.
func (s *scheduler) run(g *group) {
	granted := false
	select {
	case <-g.grant.ready:
		granted = true
	case <-g.ctx.Done():
	case <-s.done:
	}
	s.mu.Lock()
	s.unpend(g) // nobody joins it from here on: its reqs and stops hold still
	s.mu.Unlock()
	defer func() {
		for _, stop := range g.stops {
			stop()
		}
		g.cancel()
	}()
	if !granted || g.ctx.Err() != nil {
		s.retire(g)
		return
	}
	defer s.finish()
	rep, exec := s.execute(g.ctx, g)
	adopted := false
	for i, r := range g.reqs {
		if r.sp != nil && exec != nil {
			if adopted {
				r.sp.Adopt(exec)
			}
			adopted = true
		}
		if r.reply != nil { // nil: the host that handed the group over
			rep.coalesced = i > 0
			r.reply <- rep
		}
	}
}

// execute runs g's query once under ctx on its granted workers, records it
// and returns the reply every waiter gets and its execute span; the slots go
// back as it returns. g is no longer pending. Every waiter records its own
// queue wait — from enqueue to the moment its group holds its slots and
// starts executing, so queue ends where execute begins. The execution itself
// runs once, as a span under the first traced waiter's trace; the other
// waiters adopt the completed span by reference (run), so a coalesced
// reply's trace still shows exactly what ran.
func (s *scheduler) execute(ctx context.Context, g *group) (reply, *obs.Span) {
	key, reqs, granted := g.key, g.reqs, g.grant.n
	defer s.adm.release(granted)
	start := time.Now()
	var exec *obs.Span
	for _, r := range reqs {
		r.sp.ChildAt("queue", r.enq, start)
		if exec == nil {
			exec = r.sp.StartChild("execute")
		}
	}
	exec.SetAttrs(obs.Attr{Key: "batch", Int: int64(len(reqs))}, obs.Attr{Key: "granted", Int: int64(granted)})
	var st tkd.Stats
	var deg tkd.Degradation
	opts := []tkd.Option{ // the library's default algorithm is IBIG
		tkd.WithWorkers(granted),
		tkd.WithStats(&st),
		tkd.WithContext(obs.ContextWithSpan(ctx, exec)),
	}
	if key.AllowPartial {
		opts = append(opts, tkd.WithAllowPartial(&deg))
	}
	res, err := s.ds.TopK(key.K, opts...)
	exec.End()
	s.met.record(st, len(reqs), err)
	if n := len(reqs) - 1; n > 0 {
		s.met.coalesced.Add(int64(n))
	}
	return reply{res: res, st: st, deg: deg, err: err, batch: len(reqs), granted: granted}, exec
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
