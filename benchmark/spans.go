package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// The benchmark's own trace: one span around each HTTP call and each direct
// call into a layer, kept in memory and written out when the run ends. A
// nil *recorder (untraced runs) records nothing.

type span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"`  // index of the causing span, -1 for a root
	Request int    `json:"request"` // spans of one request share it; 0 = not a request
}

type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextRequest hands out the identifier the spans of one request share.
func (r *recorder) nextRequest() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// add records a finished span and returns its index for children to name.
func (r *recorder) add(name string, start, end time.Time, parent, request int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name:    name,
		StartUS: start.Sub(r.t0).Microseconds(),
		EndUS:   end.Sub(r.t0).Microseconds(),
		Parent:  parent,
		Request: request,
	})
	return len(r.spans) - 1
}

// timed runs fn inside a root span and returns how long it took.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, start, end, -1, 0)
	return end.Sub(start)
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
