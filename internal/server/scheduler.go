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

// The batch scheduler. Each resident dataset owns one scheduler goroutine,
// which hands every request to the admission line the moment it receives it:
// a query never waits for company. Requests already queued behind it are
// swept into the same dispatch and divide the fair share between them as
// mates. Every query runs IBIG, the one plan the server serves (the handler
// refuses the other four). The loop groups identical queries (same k,
// workers, allow_partial) so each group executes once and fans its answer
// out to every waiter, hands every new group to a goroutine of its own and
// goes straight back to receiving. A request whose key matches a group that
// is still waiting for its admission grant joins that group instead of
// entering the line again: identical queries coalesce exactly when they
// queue behind running work.
// Distinct queries run side by side over the same warm core.Pre and
// decompressed-column cache. How many workers a group gets, and when, is the
// admission controller's decision (admission.go), server-wide across
// datasets.
//
// Lifecycle: a scheduler retires through drainStop (dataset eviction,
// graceful server shutdown), which refuses new submits, lets in-flight
// submits finish enqueueing, dispatches everything already queued, joins
// every group still executing and only then lets the goroutine exit — no
// accepted query is ever dropped, and no goroutine the scheduler started
// outlives it. The server's done channel (Close) is the immediate teardown
// used by tests.

// queryKey identifies one executable query shape; requests with equal keys
// that wait together share one execution. AllowPartial is part of the key: a
// degradation-tolerant query and a fail-closed one must not share an
// execution, because under a shard outage they want different answers.
type queryKey struct {
	K            int
	Workers      int
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
	key   queryKey
	ctx   context.Context // the waiter's deadline/disconnect signal
	reply chan reply      // buffered(1); the scheduler never blocks on it
	sp    *obs.Span       // the waiter's root span (nil = untraced)
	enq   time.Time       // when the waiter entered the queue
}

// group is one execution's waiters: the requests dispatched with its key and
// those that joined it before it started.
type group struct {
	key  queryKey
	reqs []*request
}

// errSchedulerDraining is returned to submits that race a drainStop; handlers map it
// to 503 so clients retry elsewhere (or see the eviction as a 404 on the
// next attempt).
var errSchedulerDraining = fmt.Errorf("server: dataset is draining")

type scheduler struct {
	ds   *tkd.Dataset
	adm  *admission
	met  *datasetMetrics
	in   chan *request
	done chan struct{} // server-wide immediate shutdown (Server.Close)

	// Groups dispatched and not yet answered: inflight holds one token per
	// group (a request that joins a pending group takes none), so at
	// maxBatch of them the loop stops receiving and a full queue pushes back
	// on submit; groups is what the loop joins on exit.
	inflight chan struct{}
	groups   sync.WaitGroup

	// pending maps a key to its dispatched group that has not started
	// executing; the loop adds to it and each group's goroutine removes
	// itself once it holds its grant.
	mu      sync.Mutex
	pending map[queryKey]*group

	// Drain machinery: draining flips first, then drainStop takes rw
	// exclusively as a barrier against submits that passed the flag check,
	// then drained tells the loop to dispatch the backlog, join its groups
	// and exit (closing exited). See drainStop for the full handshake.
	draining  atomic.Bool
	rw        sync.RWMutex
	drained   chan struct{}
	exited    chan struct{}
	drainOnce sync.Once
}

// maxBatch bounds the requests one dispatch sweeps up, the submit queue
// behind it and the groups in flight ahead of it.
const maxBatch = 64

func newScheduler(ds *tkd.Dataset, adm *admission, met *datasetMetrics, done chan struct{}) *scheduler {
	s := &scheduler{
		ds:       ds,
		adm:      adm,
		met:      met,
		in:       make(chan *request, maxBatch),
		done:     done,
		drained:  make(chan struct{}),
		exited:   make(chan struct{}),
		inflight: make(chan struct{}, maxBatch),
		pending:  make(map[queryKey]*group),
	}
	go s.loop()
	return s
}

// drainStop retires the scheduler gracefully: new submits are refused with
// errSchedulerDraining, submits already past the check finish enqueueing, and the
// loop answers every queued request before its goroutine exits. Safe to call
// multiple times and concurrently; it returns once the loop and every group
// it dispatched are gone (or the server was torn down via Close).
func (s *scheduler) drainStop() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		// Barrier: an exclusive lock cannot be granted until every submit
		// that read draining==false has released its read lock, i.e. has
		// finished (or abandoned) its send on s.in. After this point the
		// queue can only shrink.
		s.rw.Lock()
		s.rw.Unlock() //nolint:staticcheck // empty critical section IS the barrier
		close(s.drained)
	})
	select {
	case <-s.exited:
	case <-s.done:
	}
}

// submit enqueues one query and waits for its reply; ctx cancellation (or
// server shutdown) abandons the wait — the scheduler still finishes the
// query for its group-mates and the buffered reply channel is collected by
// the garbage collector. sp, when non-nil, receives the queue-wait span and
// the execution spans.
func (s *scheduler) submit(ctx context.Context, key queryKey, sp *obs.Span) (reply, error) {
	if s.draining.Load() {
		return reply{}, errSchedulerDraining
	}
	req := &request{key: key, ctx: ctx, reply: make(chan reply, 1), sp: sp, enq: time.Now()}
	s.rw.RLock()
	if s.draining.Load() {
		s.rw.RUnlock()
		return reply{}, errSchedulerDraining
	}
	select {
	case s.in <- req:
		s.rw.RUnlock()
	case <-ctx.Done():
		s.rw.RUnlock()
		return reply{}, ctx.Err()
	case <-s.done:
		s.rw.RUnlock()
		return reply{}, fmt.Errorf("server: shutting down")
	}
	select {
	case r := <-req.reply:
		return r, nil
	case <-ctx.Done():
		return reply{}, ctx.Err()
	case <-s.done:
		// A graceful Shutdown closes done only after the drain served every
		// queued request, so the answer may already sit in the buffered
		// reply channel alongside the closed done — prefer it: an accepted
		// and served query must not turn into a shutdown error by select
		// randomness.
		select {
		case r := <-req.reply:
			return r, nil
		default:
			return reply{}, fmt.Errorf("server: shutting down")
		}
	}
}

// loop is the scheduler goroutine: receive a request, dispatch it with
// whatever queued behind it, repeat; on drain, dispatch the backlog. It exits
// only once every group it dispatched has replied.
func (s *scheduler) loop() {
	defer close(s.exited)
	defer s.groups.Wait()
	for {
		var first *request
		select {
		case first = <-s.in:
		case <-s.done:
			return
		case <-s.drained:
			s.finalDrain()
			return
		}
		batch := []*request{first}
	sweep:
		for len(batch) < maxBatch {
			select {
			case r := <-s.in:
				batch = append(batch, r)
			default:
				break sweep
			}
		}
		s.dispatch(batch)
	}
}

// finalDrain dispatches everything enqueued before the drain barrier closed the
// queue. The barrier guarantees no concurrent senders remain, so a
// non-blocking sweep sees the complete backlog.
func (s *scheduler) finalDrain() {
	var batch []*request
	for {
		select {
		case r := <-s.in:
			batch = append(batch, r)
		default:
			if len(batch) > 0 {
				s.dispatch(batch)
			}
			return
		}
	}
}

// dispatch hands one sweep of requests to the admission line: a request joins
// the pending group of its key if there is one, the rest are grouped by key
// and each new group takes its place in line in arrival order, dividing the
// fair share with the new groups behind it — or one worker, when that is all
// its query can use (core.UsefulWorkers) — and starts.
func (s *scheduler) dispatch(batch []*request) {
	var fresh []*group
	s.mu.Lock()
	for _, r := range batch {
		if g, ok := s.pending[r.key]; ok {
			g.reqs = append(g.reqs, r)
			continue
		}
		g := &group{key: r.key, reqs: []*request{r}}
		s.pending[r.key] = g
		fresh = append(fresh, g)
	}
	s.mu.Unlock()
	rows := s.ds.Len()
	for i, g := range fresh {
		s.inflight <- struct{}{}
		s.groups.Add(1)
		want := g.key.Workers
		if want <= 0 && core.UsefulWorkers(core.AlgIBIG, rows, s.adm.capacity) == 1 {
			want = 1 // the rest of its fair share stays free for the next query
		}
		go s.run(g, s.adm.enter(want, len(fresh)-1-i))
	}
}

// run executes one group once its admission grant is held and fans the
// answer out to every waiter, joiners included.
func (s *scheduler) run(grp *group, g *grant) {
	defer s.groups.Done()
	defer func() { <-s.inflight }()
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
