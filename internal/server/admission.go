package server

import (
	"runtime"
	"sync"
)

// admission is the server's admission controller: a FIFO weighted semaphore
// bounding the total number of in-flight worker goroutines across every
// query on every dataset, and the one place that decides how many workers a
// query gets. Two different queries share nothing but read-only state and
// run side by side at full speed, while fanning one query over two workers
// buys well under 2 × (a stale τ scores candidates the serial loop prunes),
// so intra-query workers are kept for cores that would otherwise idle: a
// group that did not ask for a worker count is granted its fair share
// max(1, capacity ÷ (groups running + groups waiting)), taken when it joins
// the line — the whole machine when it is alone, one worker each when as
// many groups as cores are runnable. An explicit count is honoured, clamped
// to the capacity so one oversized request can never deadlock. Slots are
// handed out strictly in arrival order by the releaser itself, so a wide
// request is never overtaken by a stream of narrow ones and no wake-up is
// lost; a burst degrades to queueing instead of oversubscribing the cores.
type admission struct {
	mu       sync.Mutex
	capacity int
	used     int      // slots held by running groups
	running  int      // groups holding slots
	line     []*grant // groups waiting for slots, oldest first
}

// grant is one group's place in the line; n is settled when it is taken.
type grant struct {
	n     int
	ready chan struct{} // closed once the n slots are held
}

// newAdmission returns a controller with the given worker capacity;
// capacity <= 0 selects GOMAXPROCS.
func newAdmission(capacity int) *admission {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	return &admission{capacity: capacity}
}

// enter takes the next place in line without blocking. want <= 0 asks for
// the fair share; mates is how many further groups the caller is about to
// enter (the rest of its dispatch), so that every group of one dispatch
// divides by the same count.
func (a *admission) enter(want, mates int) *grant {
	a.mu.Lock()
	defer a.mu.Unlock()
	if want <= 0 {
		want = a.capacity / (a.running + len(a.line) + 1 + mates)
	}
	g := &grant{n: min(max(want, 1), a.capacity), ready: make(chan struct{})}
	a.line = append(a.line, g)
	a.admit()
	return g
}

// admit hands slots to the head of the line for as long as it fits; a.mu is
// held. Nothing behind a head that does not fit is considered.
func (a *admission) admit() {
	for len(a.line) > 0 && a.used+a.line[0].n <= a.capacity {
		g := a.line[0]
		a.line[0] = nil // the backing array outlives the grant
		a.line = a.line[1:]
		a.used += g.n
		a.running++
		close(g.ready)
	}
}

// wait blocks until the grant's slots are held and returns their count.
func (g *grant) wait() int {
	<-g.ready
	return g.n
}

// release returns the slots of one admitted grant and admits whoever now fits.
func (a *admission) release(n int) {
	a.mu.Lock()
	a.used -= n
	a.running--
	a.admit()
	a.mu.Unlock()
}
