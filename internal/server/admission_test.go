package server

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// held reports whether g has been admitted, without blocking.
func held(g *grant) bool {
	select {
	case <-g.ready:
		return true
	default:
		return false
	}
}

// idle fails the test unless a holds no slot, runs no group and has an
// empty line.
func idle(t *testing.T, a *admission) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.used != 0 || a.running != 0 || len(a.line) != 0 {
		t.Fatalf("admission not idle: used %d, running %d, waiting %d", a.used, a.running, len(a.line))
	}
}

// TestAdmissionFIFO: a wide request queued before a stream of narrow ones is
// served before all of them, although a narrow one would have fitted the
// free slot at once; after it, the narrow ones go in arrival order.
func TestAdmissionFIFO(t *testing.T) {
	a := newAdmission(2)
	first := a.enter(1)
	if !held(first) {
		t.Fatal("a 1-slot request on an idle 2-slot controller had to wait")
	}
	wide := a.enter(2)
	narrow := make([]*grant, 10)
	for i := range narrow {
		narrow[i] = a.enter(1)
	}
	if held(wide) {
		t.Fatal("2-slot request admitted with one slot in use")
	}
	for i, g := range narrow {
		if held(g) {
			t.Fatalf("narrow request %d overtook the wide one at the head of the line", i)
		}
	}
	a.release(first.wait())
	if !held(wide) {
		t.Fatal("wide request not admitted once both slots were free")
	}
	if held(narrow[0]) {
		t.Fatal("narrow request admitted while the wide one holds every slot")
	}
	a.release(wide.wait())
	for i := 0; i < len(narrow); i += 2 {
		if !held(narrow[i]) || !held(narrow[i+1]) {
			t.Fatalf("narrow requests %d and %d not admitted in order", i, i+1)
		}
		if i+2 < len(narrow) && held(narrow[i+2]) {
			t.Fatalf("narrow request %d admitted beyond the capacity", i+2)
		}
		a.release(narrow[i].wait())
		a.release(narrow[i+1].wait())
	}
	idle(t, a)
}

// TestAdmissionFairShare pins the grant rule: the fair share divides the
// capacity by the groups running plus the groups in line (the caller
// included) with a floor of one; an explicit count is honoured, never raised,
// and clamped to the capacity.
func TestAdmissionFairShare(t *testing.T) {
	a := newAdmission(4)
	var all []*grant
	enter := func(want int) *grant {
		g := a.enter(want)
		all = append(all, g)
		return g
	}
	alone := enter(0)
	if alone.n != 4 || !held(alone) {
		t.Fatalf("a lone group was granted %d of 4 slots (held: %v)", alone.n, held(alone))
	}
	second := enter(0) // one running + itself
	if second.n != 2 || held(second) {
		t.Fatalf("second group: granted %d (want 2), held %v (want waiting)", second.n, held(second))
	}
	a.release(alone.wait())
	all = all[1:]
	if !held(second) {
		t.Fatal("second group not admitted on release")
	}
	if third := enter(0); third.n != 2 || !held(third) {
		t.Fatalf("third group: granted %d (want 2), held %v (want running)", third.n, held(third))
	}
	// Explicit counts are honoured as asked, never raised to the share, and
	// clamped to the capacity; with two running and three in line the share
	// is below one, and the floor is one.
	for _, c := range []struct{ want, n int }{{1, 1}, {3, 3}, {9, 4}, {0, 1}} {
		if g := enter(c.want); g.n != c.n {
			t.Fatalf("enter(%d) was granted %d, want %d", c.want, g.n, c.n)
		}
	}
	// The line is strict FIFO, so releasing in arrival order never blocks.
	for _, g := range all {
		a.release(g.wait())
	}
	idle(t, a)
}

// TestAdmissionReleaseWakesAll: one release that frees room for several
// waiters admits all of them — no wake-up is lost and none needs a second
// release to be noticed.
func TestAdmissionReleaseWakesAll(t *testing.T) {
	a := newAdmission(4)
	wide := a.enter(4)
	waiters := make([]*grant, 4)
	done := make(chan int, len(waiters))
	for i := range waiters {
		waiters[i] = a.enter(1)
		go func(g *grant) { done <- g.wait() }(waiters[i])
	}
	a.release(wide.wait())
	for range waiters {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("a waiter that fits was not woken by the release")
		}
	}
	for _, g := range waiters {
		a.release(g.n)
	}
	idle(t, a)
}

// TestAdmissionInterleavings hammers the controller from many goroutines
// with mixed explicit and fair-share requests: the slots in use never exceed
// the capacity, every grant is within [1, capacity] and never above what was
// asked, and the controller is idle when everyone is done.
func TestAdmissionInterleavings(t *testing.T) {
	const capacity, goroutines, rounds = 3, 16, 200
	a := newAdmission(capacity)
	var inUse atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				want := rng.Intn(capacity+3) - 1 // -1 … capacity+1
				n := a.enter(want).wait()
				if n < 1 || n > capacity || (want > 0 && n > want) {
					t.Errorf("asked %d, granted %d of %d", want, n, capacity)
				}
				if now := inUse.Add(int64(n)); now > capacity {
					t.Errorf("%d slots in use, capacity %d", now, capacity)
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				}
				inUse.Add(int64(-n))
				a.release(n)
			}
		}(int64(w))
	}
	wg.Wait()
	idle(t, a)
}
