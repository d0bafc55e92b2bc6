package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
// every accepted request gets its answer, none a shutdown error, the loop
// exits only after the last group replied, and every goroutine the scheduler
// started is gone when the drain returns. The test holds every slot (as
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
			hog := s.adm.enter(2, 0)

			replies := make([]reply, len(ks))
			errs := make([]error, len(ks))
			var wg sync.WaitGroup
			for i, k := range ks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					replies[i], errs[i] = sch.submit(context.Background(), queryKey{K: k, Alg: core.AlgNaive, Workers: 1}, nil)
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
			select {
			case <-sch.exited:
			default:
				t.Fatal("drain returned before the scheduler loop exited")
			}
			if n := len(sch.inflight); n != 0 {
				t.Fatalf("loop exited with %d groups still in flight", n)
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
// run, the loop stops collecting, the queue fills, and a further submit
// blocks and returns its context's error on cancel instead of growing the
// backlog; once slots free up every accepted request is answered.
func TestSchedulerSaturation(t *testing.T) {
	adm := newAdmission(1)
	hog := adm.enter(1, 0) // the test holds the only slot
	done := make(chan struct{})
	sch := newScheduler(tkd.GenerateIND(300, 2, 20, 0.1, 7), adm, &datasetMetrics{}, 0, done)
	defer close(done)

	// Distinct k's, so every request is a group of its own. The scheduler
	// absorbs maxBatch groups in flight, at most one window in the loop's
	// hand and maxBatch queued; the rest block in submit.
	const accepted = 4 * maxBatch
	errs := make(chan error, accepted)
	for i := 0; i < accepted; i++ {
		go func() {
			rep, err := sch.submit(context.Background(), queryKey{K: 1 + i, Workers: 1}, nil)
			if err == nil {
				err = rep.err
			}
			errs <- err
		}()
	}
	saturated := func() bool { return len(sch.inflight) == maxBatch && len(sch.in) == maxBatch }
	eventually(t, "maxBatch groups in flight and a full queue", saturated)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sch.submit(ctx, queryKey{K: 299, Workers: 1}, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit against a saturated scheduler: %v, want DeadlineExceeded", err)
	}
	if !saturated() {
		t.Fatalf("backlog moved while no slot was free: %d in flight, %d queued", len(sch.inflight), len(sch.in))
	}

	adm.release(hog.wait())
	for i := 0; i < accepted; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("accepted request failed after the slot was freed: %v", err)
		}
	}
	sch.drainStop()
	idle(t, adm)
}

// TestWindowClosesWhenFull pins when a scheduling window stops collecting.
// Every case runs behind a 10 s batch window, so only the timer case may
// take it: a window holding as many distinct queries as the server has
// worker slots closes at once; identical queries do not fill it, so a burst
// of them still waits out the timer and executes once, on a one-slot server
// too; and a Shutdown during an open window that is not full answers every
// request in it. Each request is traced, and its window span says why its
// window closed.
func TestWindowClosesWhenFull(t *testing.T) {
	const window = 10 * time.Second
	gen := func() *tkd.Dataset { return tkd.GenerateIND(2000, 4, 40, 0.1, 5) }
	// start serves gen() at the given capacity behind the 10 s window.
	start := func(t *testing.T, maxWorkers int) (*Server, *scheduler) {
		s := New(Config{MaxWorkers: maxWorkers, BatchWindow: window})
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
	// check holds one traced reply to Naive's answer for its k and returns
	// why its window closed.
	check := func(t *testing.T, key queryKey, tr *obs.Trace, rep reply) string {
		t.Helper()
		if rep.err != nil {
			t.Fatalf("k=%d: %v", key.K, rep.err)
		}
		want, err := gen().TopK(key.K, tkd.WithAlgorithm(tkd.Naive))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.res.Items) != len(want.Items) {
			t.Fatalf("k=%d: %d items, want %d", key.K, len(rep.res.Items), len(want.Items))
		}
		for j, it := range rep.res.Items {
			if w := want.Items[j]; it.Index != w.Index || it.Score != w.Score {
				t.Fatalf("k=%d: answer diverged at rank %d", key.K, j+1)
			}
		}
		queue := tr.JSON().Root.Children[0]
		if queue.Name != "queue" || len(queue.Children) == 0 || queue.Children[0].Name != "window" {
			t.Fatalf("k=%d: no queue span with a window child in %+v", key.K, tr.JSON().Root)
		}
		why, _ := queue.Children[0].Attrs["closed"].(string)
		return why
	}
	// burst submits every key at once, traced, and returns the replies, the
	// traces and how long the burst took.
	burst := func(t *testing.T, sch *scheduler, keys []queryKey) ([]reply, []*obs.Trace, time.Duration) {
		replies := make([]reply, len(keys))
		errs := make([]error, len(keys))
		traces := make([]*obs.Trace, len(keys))
		began := time.Now()
		var wg sync.WaitGroup
		for i, key := range keys {
			traces[i] = obs.New("query")
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i], errs[i] = sch.submit(context.Background(), key, traces[i].Root())
			}()
		}
		wg.Wait()
		took := time.Since(began)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("k=%d: %v", keys[i].K, err)
			}
		}
		return replies, traces, took
	}
	naive := func(k int) queryKey { return queryKey{K: k, Alg: core.AlgNaive, Workers: 1} }

	t.Run("distinct pair fills the window", func(t *testing.T) {
		t.Parallel()
		_, sch := start(t, 2)
		keys := []queryKey{naive(3), naive(4)}
		replies, traces, took := burst(t, sch, keys)
		if took > window/4 {
			t.Fatalf("two distinct queries on two slots took %v, want the window closed by the second", took)
		}
		for i, rep := range replies {
			if rep.batch != 2 || rep.coalesced {
				t.Errorf("k=%d: window of %d, coalesced %v; want both in one window of 2, none coalesced", keys[i].K, rep.batch, rep.coalesced)
			}
			if why := check(t, keys[i], traces[i], rep); why != closedFull {
				t.Errorf("k=%d: window closed %q, want %q", keys[i].K, why, closedFull)
			}
		}
	})
	for _, tc := range []struct {
		name       string
		maxWorkers int
		identical  int
	}{
		{"identical queries wait out the timer", 2, 3},
		{"one slot still coalesces", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s, sch := start(t, tc.maxWorkers)
			before := coalescedTotal(t, s)
			keys := make([]queryKey, tc.identical)
			for i := range keys {
				keys[i] = naive(5)
			}
			replies, traces, took := burst(t, sch, keys)
			if took < window {
				t.Errorf("%d identical queries answered after %v; the window must stay open until its %v timer", tc.identical, took, window)
			}
			shared := 0
			for i, rep := range replies {
				if rep.batch != tc.identical {
					t.Errorf("query %d rode a window of %d, want %d", i, rep.batch, tc.identical)
				}
				if rep.coalesced {
					shared++
				}
				if why := check(t, keys[i], traces[i], rep); why != closedTimer {
					t.Errorf("query %d: window closed %q, want %q", i, why, closedTimer)
				}
			}
			if shared != tc.identical-1 {
				t.Errorf("%d of %d identical queries coalesced, want %d", shared, tc.identical, tc.identical-1)
			}
			if got := coalescedTotal(t, s) - before; got != tc.identical-1 {
				t.Errorf("tkd_coalesced_queries_total rose by %d, want %d", got, tc.identical-1)
			}
		})
	}
	t.Run("shutdown answers an open window", func(t *testing.T) {
		t.Parallel()
		s, sch := start(t, 4)
		// Three distinct queries on four slots: the window is open and not
		// full. The test enqueues them as submit does, so it can tell when
		// the loop holds all three in its window.
		keys := []queryKey{naive(3), naive(4), naive(5)}
		reqs := make([]*request, len(keys))
		traces := make([]*obs.Trace, len(keys))
		for i, key := range keys {
			traces[i] = obs.New("query")
			reqs[i] = &request{key: key, ctx: context.Background(), reply: make(chan reply, 1), sp: traces[i].Root(), enq: time.Now()}
			sch.in <- reqs[i]
		}
		eventually(t, "the loop to collect all three", func() bool { return len(sch.in) == 0 })
		if n := sch.met.batches.Load(); n != 0 {
			t.Fatalf("%d windows dispatched before the shutdown; the window must still be open", n)
		}
		s.Shutdown()
		for i, r := range reqs {
			var rep reply
			select {
			case rep = <-r.reply:
			default:
				t.Fatalf("k=%d queued in the open window was not answered by Shutdown", keys[i].K)
			}
			if rep.batch != len(keys) {
				t.Errorf("k=%d rode a window of %d, want %d", keys[i].K, rep.batch, len(keys))
			}
			if why := check(t, keys[i], traces[i], rep); why != closedDrain {
				t.Errorf("k=%d: window closed %q, want %q", keys[i].K, why, closedDrain)
			}
		}
	})
}

// BenchmarkSchedulerWindow is the scheduler's row of the ledger, on the
// served benchmark's query-light shape (2,000 × 4 IND rows, where the engine
// costs ≈ 0.1 ms) at two worker slots and tkdserver's default 1 ms window:
// /pair submits two distinct queries together, one per slot, and an op is
// the pair's wall time — their window is full once both arrived, so neither
// waits for the timer; /lone submits one query, which has no company to
// wait for and still pays the whole window.
func BenchmarkSchedulerWindow(b *testing.B) {
	ds := tkd.GenerateIND(2000, 4, 40, 0.2, 1)
	ds.Prepare()
	done := make(chan struct{})
	defer close(done)
	sch := newScheduler(ds, newAdmission(2), &datasetMetrics{}, time.Millisecond, done)
	ask := func(b *testing.B, k int) {
		rep, err := sch.submit(context.Background(), queryKey{K: k, Alg: core.AlgIBIG}, nil)
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
