package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
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
