package server

import (
	"runtime"
	"slices"
	"sync"
)

// admission is the server's admission controller: a FIFO weighted semaphore
// bounding the total number of in-flight worker goroutines across every
// query on every dataset, and the one place that decides how many workers a
// query gets. Two different queries share nothing but read-only state and
// run side by side at full speed, while fanning one query over two workers
// buys well under 2 × (a stale τ scores candidates the serial loop prunes),
// so intra-query workers are kept for cores that would otherwise idle: a
// group is granted its fair share max(1, capacity ÷ (groups running + groups
// waiting)), taken when it joins the line — the whole machine when it is
// alone, one worker each when as many groups as cores are runnable. A group
// whose query can use only one worker (core.UsefulWorkers: BIG and IBIG over
// at most one kernel block of rows) asks for one instead (scheduler.submit),
// so the slots it cannot use stay free for the next query. A count asked for
// is clamped to the capacity, so one oversized request can never deadlock.
// Slots are handed out strictly in arrival order by the releaser itself, so
// a wide request is never overtaken by a stream of narrow ones and no
// wake-up is lost; a burst degrades to queueing instead of oversubscribing
// the cores.
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

// heldAtOnce is the ready channel of every grant whose slots were free when
// it entered an empty line: closed once and shared, so such a grant makes no
// channel of its own.
var heldAtOnce = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// place takes the next place in line for g without blocking; g belongs to
// its caller (a group carries its grant inline) and is settled here. want <=
// 0 asks for the fair share. A grant that fits an empty line holds its slots
// at once; any other waits behind the head, which admit left there because
// it did not fit.
func (a *admission) place(g *grant, want int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if want <= 0 {
		want = a.capacity / (a.running + len(a.line) + 1)
	}
	g.n = min(max(want, 1), a.capacity)
	if len(a.line) == 0 && a.used+g.n <= a.capacity {
		a.used += g.n
		a.running++
		g.ready = heldAtOnce
		return
	}
	g.ready = make(chan struct{})
	a.line = append(a.line, g)
}

// admit hands slots to the head of the line for as long as it fits; a.mu is
// held. Nothing behind a head that does not fit is considered. The line
// keeps its backing array, so a steady stream of grants appends to it
// without allocating.
func (a *admission) admit() {
	for len(a.line) > 0 && a.used+a.line[0].n <= a.capacity {
		g := a.line[0]
		a.line = slices.Delete(a.line, 0, 1)
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

// withdraw takes a grant nobody will use out of the line, or returns its
// slots if it was admitted meanwhile, and admits whoever now fits.
func (a *admission) withdraw(g *grant) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if i := slices.Index(a.line, g); i >= 0 {
		a.line = slices.Delete(a.line, i, i+1)
	} else {
		a.used -= g.n
		a.running--
	}
	a.admit()
}

// release returns the slots of one admitted grant and admits whoever now fits.
func (a *admission) release(n int) {
	a.mu.Lock()
	a.used -= n
	a.running--
	a.admit()
	a.mu.Unlock()
}
