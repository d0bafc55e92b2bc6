package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/tkd"
)

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDrainWaitsForRunningGroups retires a scheduler — by eviction and by
// graceful Shutdown — while two groups execute and a third waits for a slot:
// every accepted request gets its answer, none a shutdown error, the drain
// returns only after the last group replied, and every goroutine the
// scheduler started is gone when the drain returns. The test holds every slot (as
// TestSchedulerSaturation's hog does) until the drain has begun, so the drain
// always finds the three groups in flight, and hands the slots back in one
// step that leaves two of them running and the third in line.
func TestDrainWaitsForRunningGroups(t *testing.T) {
	gen := func() *tkd.Dataset { return tkd.GenerateIND(2000, 4, 40, 0.1, 5) }
	ks := []int{3, 4, 5}
	want := make([]tkd.Result, len(ks))
	for i, k := range ks {
		var err error
		if want[i], err = gen().TopK(k, tkd.WithAlgorithm(tkd.Naive)); err != nil {
			t.Fatal(err)
		}
	}
	retire := map[string]func(*testing.T, *Server){
		"evict": func(t *testing.T, s *Server) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/datasets/d", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("evict: HTTP %d: %s", rec.Code, rec.Body)
			}
		},
		"shutdown": func(_ *testing.T, s *Server) { s.Shutdown() },
	}
	for name, stop := range retire {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := New(Config{MaxWorkers: 2})
			defer s.Close()
			if err := s.AddDataset("d", gen()); err != nil {
				t.Fatal(err)
			}
			e, _ := s.reg.get("d")
			sch := e.sch
			hog := s.adm.enter(2)

			replies := make([]reply, len(ks))
			errs := make([]error, len(ks))
			var wg sync.WaitGroup
			for i, k := range ks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					replies[i], errs[i] = sch.submit(context.Background(), queryKey{K: k}, nil)
				}()
			}
			eventually(t, "three groups in line behind the held slots", func() bool {
				s.adm.mu.Lock()
				defer s.adm.mu.Unlock()
				return s.adm.running == 1 && len(s.adm.line) == len(ks)
			})
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				stop(t, s)
			}()
			eventually(t, "the drain to begin", sch.draining.Load)
			// Release the hog as admission.release does, reading the state it
			// leaves under the same lock.
			s.adm.mu.Lock()
			s.adm.used -= hog.wait()
			s.adm.running--
			s.adm.admit()
			running, waiting := s.adm.running, len(s.adm.line)
			s.adm.mu.Unlock()
			if running != 2 || waiting != 1 {
				t.Fatalf("after the hog's release: %d groups running, %d in line; want two and a third in line", running, waiting)
			}
			<-stopped
			if n := len(sch.inflight); n != 0 {
				t.Fatalf("drain returned with %d groups still in flight", n)
			}
			wg.Wait()
			for i, k := range ks {
				if errs[i] != nil || replies[i].err != nil {
					t.Fatalf("k=%d accepted before the drain was not answered: %v / %v", k, errs[i], replies[i].err)
				}
				for j, it := range replies[i].res.Items {
					if w := want[i].Items[j]; it.Index != w.Index || it.Score != w.Score {
						t.Fatalf("k=%d drained answer diverged at rank %d", k, j+1)
					}
				}
			}
			if _, err := sch.submit(context.Background(), queryKey{K: 3}, nil); !errors.Is(err, errSchedulerDraining) {
				t.Fatalf("submit after the drain: %v, want errSchedulerDraining", err)
			}
			idle(t, s.adm)
			s.Close()
			eventually(t, "the scheduler's goroutines to be gone", func() bool {
				return runtime.NumGoroutine() <= base
			})
		})
	}
}

// TestSchedulerSaturation: with maxBatch groups dispatched and unable to
// run, a submit that would open another group waits for a token and returns
// its context's error on cancel instead of growing the backlog, while a
// submit identical to a group still in line joins it without a token; once
// the slot frees every accepted request is answered, the joiner by its
// group's execution.
func TestSchedulerSaturation(t *testing.T) {
	adm := newAdmission(1)
	hog := adm.enter(1) // the test holds the only slot
	done := make(chan struct{})
	sch := newScheduler(tkd.GenerateIND(300, 2, 20, 0.1, 7), adm, &datasetMetrics{}, done)
	defer close(done)

	// Distinct k's, so every request is a group of its own. The scheduler
	// absorbs maxBatch groups in flight; the rest wait for a token in submit.
	const accepted = 4 * maxBatch
	errs := make(chan error, accepted)
	for i := 0; i < accepted; i++ {
		go func() {
			rep, err := sch.submit(context.Background(), queryKey{K: 1 + i}, nil)
			if err == nil {
				err = rep.err
			}
			errs <- err
		}()
	}
	inLine := func() int {
		sch.mu.Lock()
		defer sch.mu.Unlock()
		return len(sch.pending)
	}
	saturated := func() bool { return len(sch.inflight) == maxBatch && inLine() == maxBatch }
	eventually(t, "maxBatch groups in flight", saturated)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sch.submit(ctx, queryKey{K: 299}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit against a saturated scheduler: %v, want DeadlineExceeded", err)
	}
	if !saturated() {
		t.Fatalf("backlog moved while no slot was free: %d in flight, %d in line", len(sch.inflight), inLine())
	}

	// An identical query joins a group in line: it takes no token and is
	// answered by that group's execution.
	sch.mu.Lock()
	var key queryKey
	for key = range sch.pending {
		break
	}
	sch.mu.Unlock()
	joined := make(chan error, 1)
	go func() {
		rep, err := sch.submit(context.Background(), key, nil)
		if err == nil && !rep.coalesced {
			err = fmt.Errorf("k=%d: answered by an execution of its own", key.K)
		}
		if err == nil {
			err = rep.err
		}
		joined <- err
	}()
	eventually(t, "the identical submit to join its group", func() bool {
		sch.mu.Lock()
		defer sch.mu.Unlock()
		g := sch.pending[key]
		return g != nil && len(g.reqs) == 2
	})
	if !saturated() {
		t.Fatalf("a joiner moved the backlog: %d in flight, %d in line", len(sch.inflight), inLine())
	}

	adm.release(hog.wait())
	for i := 0; i < accepted; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("accepted request failed after the slot was freed: %v", err)
		}
	}
	if err := <-joined; err != nil {
		t.Fatalf("the joiner: %v", err)
	}
	sch.drainStop()
	idle(t, adm)
}

// TestNoGoroutinePerDataset: a resident dataset costs no goroutine of its
// own. With ingest, following and the index directory off, registering
// datasets leaves the goroutine count where it started, each answers a query
// and evicting them all leaves it there too; a query's group goroutine is
// gone once it has answered.
func TestNoGoroutinePerDataset(t *testing.T) {
	s := New(Config{MaxWorkers: 2})
	defer s.Close()
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		eventually(t, what, func() bool { return runtime.NumGoroutine() <= base })
	}
	const datasets = 4
	for i := 0; i < datasets; i++ {
		if err := s.AddDataset(fmt.Sprintf("d%d", i), tkd.GenerateIND(500, 3, 20, 0.1, int64(i))); err != nil {
			t.Fatal(err)
		}
		settled(fmt.Sprintf("the goroutine count after registering %d datasets", i+1))
	}
	for i := 0; i < datasets; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/datasets/d%d/query", i), strings.NewReader(`{"k":3}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("d%d query: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	settled("the group goroutines to be gone")
	for i := 0; i < datasets; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, fmt.Sprintf("/v1/datasets/d%d", i), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("d%d evict: HTTP %d: %s", i, rec.Code, rec.Body)
		}
	}
	settled("the goroutine count after evicting every dataset")
}

// TestShutdownJoinsStandingEvaluations: Shutdown with a subscriber
// connected, a dataset ingesting and a standing evaluation in flight —
// submitted, and waiting in the admission line behind a hog grant — leaves
// the goroutine count where it started: the evaluation's goroutine, the
// subscriber's handler and the publisher are all gone.
func TestShutdownJoinsStandingEvaluations(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Config{MaxWorkers: 2, WALDir: t.TempDir(), PublishInterval: time.Millisecond})
	defer s.Close()
	if err := s.AddDataset("d", tkd.GenerateIND(2000, 4, 40, 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets/d/subscribe", strings.NewReader(`{"k":5}`))
		req.Header.Set("Accept", "text/event-stream")
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	eventually(t, "the subscriber's first answer", func() bool {
		return s.standing.subscribers.Load() == 1 && s.standing.evals.Load() == 1 && s.Waiting("d") == 0
	})

	release := s.HoldSlots()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/d/append",
		strings.NewReader(`{"rows":[{"id":"z","values":[0,0,0,0]}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("append: HTTP %d: %s", rec.Code, rec.Body)
	}
	eventually(t, "the publish's evaluation in the admission line", func() bool { return s.Waiting("d") == 1 })

	shut := make(chan struct{})
	go func() { s.Shutdown(); close(shut) }()
	eventually(t, "Shutdown to begin", s.draining.Load)
	release() // the evaluation's group holds slots, finds its waiter gone and answers nobody
	<-shut
	<-served
	eventually(t, "the goroutine count after Shutdown", func() bool { return runtime.NumGoroutine() <= base })
}

// TestLoneQueryRunsOnItsSubmitter: a query nobody joins waits for its grant
// and executes on the goroutine that submitted it. While it waits behind a
// hog grant the goroutine count rises by exactly one — the submitter — and
// once the hog lets go it answers Naive's items, answered by an execution of
// its own, and leaves no goroutine behind.
func TestLoneQueryRunsOnItsSubmitter(t *testing.T) {
	gen := func() *tkd.Dataset { return tkd.GenerateIND(2000, 4, 40, 0.1, 5) }
	s := New(Config{MaxWorkers: 2})
	defer s.Close()
	if err := s.AddDataset("d", gen()); err != nil {
		t.Fatal(err)
	}
	e, _ := s.reg.get("d")
	release := s.HoldSlots()
	type answer struct {
		rep reply
		err error
	}
	base := runtime.NumGoroutine()
	answered := make(chan answer, 1)
	go func() {
		rep, err := e.sch.submit(context.Background(), queryKey{K: 7}, nil)
		answered <- answer{rep, err}
	}()
	eventually(t, "the query in the admission line", func() bool { return s.Waiting("d") == 1 })
	if n := runtime.NumGoroutine() - base; n != 1 {
		t.Fatalf("a lone query waiting for its grant added %d goroutines, want 1: its submitter", n)
	}
	release()
	var a answer
	select {
	case a = <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("the query was never answered")
	}
	if a.err == nil {
		a.err = a.rep.err
	}
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.rep.coalesced || a.rep.batch != 1 || a.rep.granted != 1 {
		t.Errorf("coalesced %v, batch %d, granted %d; want an execution of its own on one slot", a.rep.coalesced, a.rep.batch, a.rep.granted)
	}
	want, err := gen().TopK(7, tkd.WithAlgorithm(tkd.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.rep.res.Items, want.Items) {
		t.Fatalf("answer %v, want Naive's %v", a.rep.res.Items, want.Items)
	}
	eventually(t, "the goroutine count after the answer", func() bool { return runtime.NumGoroutine() <= base })
	idle(t, s.adm)
}

// TestShutdownRetiresAbandonedGroups: a group that no waiter still waits for
// leaves the admission line and hands its in-flight token back without
// running. A hog grant holds every slot; the only waiter of a queued
// standing evaluation, of a lone query, or both waiters of a coalesced group
// in line are cancelled, and Shutdown returns within 100 ms while the hog
// still holds its slots — the drain does not wait for a grant that would
// answer nobody. Once the hog lets go the controller is idle: the group's
// grant was withdrawn, not left to take slots later.
func TestShutdownRetiresAbandonedGroups(t *testing.T) {
	gen := func() *tkd.Dataset { return tkd.GenerateIND(2000, 4, 40, 0.1, 5) }
	// cancelled queues the given number of waiters of one key behind the hog
	// and cancels them all once they wait in one group.
	cancelled := func(waiters int) func(*testing.T, *Server) {
		return func(t *testing.T, s *Server) {
			e, _ := s.reg.get("d")
			ctx, cancel := context.WithCancel(context.Background())
			errs := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				go func() {
					_, err := e.sch.submit(ctx, queryKey{K: 3}, nil)
					errs <- err
				}()
				eventually(t, fmt.Sprintf("waiter %d in the group in line", i+1), func() bool { return s.Waiting("d") == i+1 })
			}
			cancel()
			for i := 0; i < waiters; i++ {
				if err := <-errs; !errors.Is(err, context.Canceled) {
					t.Fatalf("a cancelled waiter: %v, want context.Canceled", err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name     string
		standing bool
		queue    func(*testing.T, *Server)
	}{
		{"standing evaluation", true, func(t *testing.T, s *Server) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/datasets/d/append",
				strings.NewReader(`{"rows":[{"id":"z","values":[0,0,0,0]}]}`)))
			if rec.Code != http.StatusOK {
				t.Fatalf("append: HTTP %d: %s", rec.Code, rec.Body)
			}
			eventually(t, "the publish's evaluation in the admission line", func() bool { return s.Waiting("d") == 1 })
		}},
		{"lone query", false, cancelled(1)},
		{"coalesced group", false, cancelled(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := Config{MaxWorkers: 2}
			if tc.standing {
				cfg.WALDir, cfg.PublishInterval = t.TempDir(), time.Millisecond
			}
			s := New(cfg)
			defer s.Close()
			if err := s.AddDataset("d", gen()); err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			if tc.standing {
				go func() {
					defer close(served)
					req := httptest.NewRequest(http.MethodPost, "/v1/datasets/d/subscribe", strings.NewReader(`{"k":5}`))
					req.Header.Set("Accept", "text/event-stream")
					s.ServeHTTP(httptest.NewRecorder(), req)
				}()
				eventually(t, "the subscriber's first answer", func() bool {
					return s.standing.subscribers.Load() == 1 && s.standing.evals.Load() == 1 && s.Waiting("d") == 0
				})
			} else {
				close(served)
			}
			release := s.HoldSlots()
			tc.queue(t, s)

			start := time.Now()
			shut := make(chan struct{})
			go func() { s.Shutdown(); close(shut) }()
			select {
			case <-shut:
			case <-time.After(100 * time.Millisecond):
				release()
				<-shut
				t.Fatalf("Shutdown took %v: it waited for a group nobody waits for", time.Since(start))
			}
			<-served
			if n := s.Waiting("d"); n != 0 {
				t.Errorf("%d requests still wait in line after Shutdown", n)
			}
			release()
			idle(t, s.adm)
			eventually(t, "the goroutine count after Shutdown", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestCoalescesBehindRunningGroups pins when identical queries share an
// execution now that a query dispatches the moment it arrives: while they
// wait behind running work, and only then. A hog grant holds every worker
// slot, as running queries would. Three identical queries submitted one at a
// time queue behind it as one group — the second and third join the group
// the first put in the admission line instead of entering the line again —
// and execute once. A distinct query submitted while a slot is free starts
// without waiting for anything, and a Shutdown while a joined group is still
// in line answers every waiter.
func TestCoalescesBehindRunningGroups(t *testing.T) {
	gen := func() *tkd.Dataset { return tkd.GenerateIND(2000, 4, 40, 0.1, 5) }
	start := func(t *testing.T) (*Server, *scheduler) {
		s := New(Config{MaxWorkers: 2})
		t.Cleanup(s.Close)
		if err := s.AddDataset("d", gen()); err != nil {
			t.Fatal(err)
		}
		e, _ := s.reg.get("d")
		return s, e.sch
	}
	coalesced := regexp.MustCompile(`(?m)^tkd_coalesced_queries_total\{dataset="d"\} (\d+)$`)
	coalescedTotal := func(t *testing.T, s *Server) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		m := coalesced.FindStringSubmatch(rec.Body.String())
		if m == nil {
			t.Fatalf("no tkd_coalesced_queries_total sample for d in:\n%s", rec.Body)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	type answer struct {
		rep reply
		err error
	}
	// ask submits one traced query and delivers its answer on the channel.
	ask := func(sch *scheduler, key queryKey, tr *obs.Trace) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			rep, err := sch.submit(context.Background(), key, tr.Root())
			ch <- answer{rep, err}
		}()
		return ch
	}
	// await takes one answer, failing if it never comes.
	await := func(t *testing.T, ch <-chan answer) answer {
		t.Helper()
		select {
		case a := <-ch:
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("a waiter was never answered")
			return answer{}
		}
	}
	// queued reports how many requests wait in key's pending group and how
	// many groups wait in the admission line.
	queued := func(s *Server, sch *scheduler, key queryKey) (waiters, line int) {
		sch.mu.Lock()
		if g := sch.pending[key]; g != nil {
			waiters = len(g.reqs)
		}
		sch.mu.Unlock()
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		return waiters, len(s.adm.line)
	}
	// queueBehind submits n identical traced queries one at a time, each once
	// the previous one waits in the key's one group in line.
	queueBehind := func(t *testing.T, s *Server, sch *scheduler, key queryKey, n int) ([]<-chan answer, []*obs.Trace) {
		answers := make([]<-chan answer, n)
		traces := make([]*obs.Trace, n)
		for i := range answers {
			traces[i] = obs.New("query")
			answers[i] = ask(sch, key, traces[i])
			eventually(t, fmt.Sprintf("query %d to wait in the one group in line", i+1), func() bool {
				waiters, line := queued(s, sch, key)
				return waiters == i+1 && line == 1
			})
		}
		return answers, traces
	}
	// check holds one answer to Naive's for its k and returns its queue span.
	check := func(t *testing.T, key queryKey, tr *obs.Trace, a answer) *obs.SpanJSON {
		t.Helper()
		if a.err == nil {
			a.err = a.rep.err
		}
		if a.err != nil {
			t.Fatalf("k=%d: %v", key.K, a.err)
		}
		want, err := gen().TopK(key.K, tkd.WithAlgorithm(tkd.Naive))
		if err != nil {
			t.Fatal(err)
		}
		if len(a.rep.res.Items) != len(want.Items) {
			t.Fatalf("k=%d: %d items, want %d", key.K, len(a.rep.res.Items), len(want.Items))
		}
		for j, it := range a.rep.res.Items {
			if w := want.Items[j]; it.Index != w.Index || it.Score != w.Score {
				t.Fatalf("k=%d: answer diverged at rank %d", key.K, j+1)
			}
		}
		queue := tr.JSON().Root.Children[0]
		if queue.Name != "queue" || len(queue.Children) != 0 {
			t.Fatalf("k=%d: first span %q with %d children, want a queue leaf", key.K, queue.Name, len(queue.Children))
		}
		return queue
	}

	t.Run("identical queries join the group in line", func(t *testing.T) {
		t.Parallel()
		s, sch := start(t)
		before := coalescedTotal(t, s)
		hog := s.adm.enter(2)
		key := queryKey{K: 5}
		answers, traces := queueBehind(t, s, sch, key, 3)
		s.adm.release(hog.wait())
		shared := 0
		for i, ch := range answers {
			a := await(t, ch)
			check(t, key, traces[i], a)
			if a.rep.batch != 3 {
				t.Errorf("query %d was answered by an execution of %d requests, want all 3", i, a.rep.batch)
			}
			if a.rep.coalesced {
				shared++
			}
		}
		if shared != 2 {
			t.Errorf("%d of 3 identical queries coalesced, want 2", shared)
		}
		if got := coalescedTotal(t, s) - before; got != 2 {
			t.Errorf("tkd_coalesced_queries_total rose by %d, want 2", got)
		}
	})
	t.Run("a free slot starts a query at once", func(t *testing.T) {
		t.Parallel()
		s, sch := start(t)
		hog := s.adm.enter(1) // one of the two slots stays free
		defer func() { s.adm.release(hog.wait()) }()
		key := queryKey{K: 4}
		tr := obs.New("query")
		a := await(t, ask(sch, key, tr))
		check(t, key, tr, a)
		if a.rep.granted != 1 || a.rep.coalesced || a.rep.batch != 1 {
			t.Errorf("granted %d, coalesced %v, batch %d; want the free slot to itself", a.rep.granted, a.rep.coalesced, a.rep.batch)
		}
	})
	t.Run("shutdown answers a joined group in line", func(t *testing.T) {
		t.Parallel()
		s, sch := start(t)
		hog := s.adm.enter(2)
		key := queryKey{K: 3}
		answers, traces := queueBehind(t, s, sch, key, 2)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			s.Shutdown()
		}()
		eventually(t, "the drain to begin", sch.draining.Load)
		if _, err := sch.submit(context.Background(), key, nil); !errors.Is(err, errSchedulerDraining) {
			t.Fatalf("submit during the drain: %v, want errSchedulerDraining", err)
		}
		s.adm.release(hog.wait())
		<-stopped
		shared := 0
		for i, ch := range answers {
			a := await(t, ch)
			check(t, key, traces[i], a)
			if a.rep.coalesced {
				shared++
			}
		}
		if shared != 1 {
			t.Errorf("%d of the 2 waiters coalesced, want 1", shared)
		}
	})
}

// BenchmarkSchedulerWindow is the scheduler's row of the ledger, on the
// served benchmark's query-light shape (2,000 × 4 IND rows, where the engine
// costs ≈ 0.1 ms) at two worker slots. /pair submits two distinct queries
// together and an op is the pair's wall time: an IBIG query over one kernel
// block of rows is granted one slot (core.UsefulWorkers), so the two run side
// by side. /lone submits one query, which dispatches at once and runs on one
// goroutine. The name is kept so the ledger row stays continuous.
func BenchmarkSchedulerWindow(b *testing.B) {
	ds := tkd.GenerateIND(2000, 4, 40, 0.2, 1)
	ds.Prepare()
	done := make(chan struct{})
	defer close(done)
	sch := newScheduler(ds, newAdmission(2), &datasetMetrics{}, done)
	ask := func(b *testing.B, k int) {
		rep, err := sch.submit(context.Background(), queryKey{K: k}, nil)
		if err == nil {
			err = rep.err
		}
		if err != nil {
			b.Error(err)
		}
	}
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			wg.Add(2)
			for _, k := range []int{1 + i%4, 5 + i%3} {
				go func() {
					defer wg.Done()
					ask(b, k)
				}()
			}
			wg.Wait()
		}
	})
	b.Run("lone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ask(b, 1+i%7)
		}
	})
	sch.drainStop()
}
