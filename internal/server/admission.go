package server

import (
	"runtime"
	"sync"
)

// admission is the server's admission controller: a weighted semaphore
// bounding the total number of in-flight worker goroutines across every
// query on every dataset. Each query acquires as many units as the workers
// it will fan out (clamped to the capacity so one oversized request can
// never deadlock), runs, and releases them — so a burst of parallel queries
// degrades to queueing instead of oversubscribing the cores.
type admission struct {
	mu       sync.Mutex
	cond     *sync.Cond
	capacity int
	used     int
}

// newAdmission returns a controller with the given worker capacity;
// capacity <= 0 selects GOMAXPROCS.
func newAdmission(capacity int) *admission {
	if capacity <= 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	a := &admission{capacity: capacity}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// acquire blocks until n worker slots are free and returns the granted
// count: n clamped to [1, capacity].
func (a *admission) acquire(n int) int {
	if n > a.capacity {
		n = a.capacity
	}
	if n < 1 {
		n = 1
	}
	a.mu.Lock()
	for a.used+n > a.capacity {
		a.cond.Wait()
	}
	a.used += n
	a.mu.Unlock()
	return n
}

// release returns n previously acquired slots.
func (a *admission) release(n int) {
	a.mu.Lock()
	a.used -= n
	a.mu.Unlock()
	a.cond.Broadcast()
}
