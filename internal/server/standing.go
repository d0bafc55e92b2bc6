package server

// Standing top-k subscriptions. A standing query is a (dataset, k) pair the
// server keeps continuously answered with IBIG, its one plan: every publish —
// local ingest fold, follower delta apply, full epoch import, reload —
// re-runs its TopK on the new epoch, so the standing answer is always the
// one POST /query gives, and subscribers are woken only when the ranked
// answer actually changed. Identical subscriptions share one standingQuery,
// so a thousand dashboards watching the same top-10 cost one evaluation per
// epoch, not a thousand.
//
// Delivery is POST /v1/datasets/{name}/subscribe in two modes: with
// `Accept: text/event-stream` the connection stays open and each change is
// pushed as an SSE `result` event (the current answer is sent immediately
// on connect); otherwise the request is a long-poll — it answers
// immediately when the caller's after_version is stale, and parks up to
// wait_millis for the next change when it is current.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// standingKey identifies one shared standing query.
type standingKey struct {
	dataset string
	k       int
}

// StandingEvent is the wire form of one standing-query answer, used both as
// the SSE event payload and the long-poll response body.
type StandingEvent struct {
	Dataset   string `json:"dataset"`
	K         int    `json:"k"`
	Algorithm string `json:"algorithm"`
	// Version counts answer changes since the subscription was first
	// materialised; it only moves when the ranked items moved. Clients echo
	// it back as after_version to long-poll for the next change.
	Version uint64 `json:"version"`
	// Epoch is the dataset epoch the answer was computed against.
	Epoch uint64      `json:"epoch"`
	Items []QueryItem `json:"items"`
	// Closed marks the final event of a subscription whose dataset was
	// evicted; no further versions will ever arrive.
	Closed bool `json:"closed,omitempty"`
}

// standingQuery is the shared state behind every subscriber of one key.
type standingQuery struct {
	key standingKey

	// evalMu serialises evaluations (publish hooks and the first-subscriber
	// seed may race); mu guards the answer state below and is never held
	// across an engine call.
	evalMu sync.Mutex
	mu     sync.Mutex
	ver    uint64
	epoch  uint64
	items  []QueryItem
	closed bool
	refs   int
	subs   map[chan struct{}]struct{}
}

// snapshotLocked renders the current answer; callers hold sq.mu.
func (sq *standingQuery) snapshotLocked() StandingEvent {
	return StandingEvent{
		Dataset:   sq.key.dataset,
		K:         sq.key.k,
		Algorithm: servedAlgorithm,
		Version:   sq.ver,
		Epoch:     sq.epoch,
		Items:     sq.items,
		Closed:    sq.closed,
	}
}

// broadcastLocked sets every subscriber's dirty flag; callers hold sq.mu.
// Channels have capacity one and the send never blocks — a subscriber that
// already has a pending wake coalesces further ones.
func (sq *standingQuery) broadcastLocked() {
	for ch := range sq.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// standingRegistry owns every live standing query and the counters the
// metrics endpoint renders.
type standingRegistry struct {
	mu sync.Mutex
	qs map[standingKey]*standingQuery

	subscribers atomic.Int64 // connected subscribers right now
	evals       atomic.Int64 // engine evaluations run
}

func newStandingRegistry() *standingRegistry {
	return &standingRegistry{qs: make(map[standingKey]*standingQuery)}
}

// acquire returns the shared query for key, creating it on first use, and
// takes a reference plus a fresh dirty channel for this subscriber.
func (g *standingRegistry) acquire(key standingKey) (*standingQuery, chan struct{}) {
	g.mu.Lock()
	sq := g.qs[key]
	if sq == nil {
		sq = &standingQuery{key: key, subs: make(map[chan struct{}]struct{})}
		g.qs[key] = sq
	}
	g.mu.Unlock()
	ch := make(chan struct{}, 1)
	sq.mu.Lock()
	sq.refs++
	sq.subs[ch] = struct{}{}
	sq.mu.Unlock()
	g.subscribers.Add(1)
	return sq, ch
}

// release drops one subscriber; the last one out deletes the shared query
// so an idle key stops being re-evaluated on every publish.
func (g *standingRegistry) release(sq *standingQuery, ch chan struct{}) {
	g.subscribers.Add(-1)
	sq.mu.Lock()
	delete(sq.subs, ch)
	sq.refs--
	gone := sq.refs == 0
	sq.mu.Unlock()
	if !gone {
		return
	}
	g.mu.Lock()
	// Re-check under the registry lock: a new subscriber may have acquired
	// the same key between our unlock and here.
	sq.mu.Lock()
	if sq.refs == 0 && g.qs[sq.key] == sq {
		delete(g.qs, sq.key)
	}
	sq.mu.Unlock()
	g.mu.Unlock()
}

// forDataset returns the live queries standing over name.
func (g *standingRegistry) forDataset(name string) []*standingQuery {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []*standingQuery
	for key, sq := range g.qs {
		if key.dataset == name {
			out = append(out, sq)
		}
	}
	return out
}

// dropDataset ends every subscription over an evicted dataset: the final
// broadcast carries closed=true and wakes both delivery modes.
func (g *standingRegistry) dropDataset(name string) {
	for _, sq := range g.forDataset(name) {
		sq.mu.Lock()
		if !sq.closed {
			sq.closed = true
			sq.ver++
			sq.broadcastLocked()
		}
		sq.mu.Unlock()
	}
}

// notifyStanding re-evaluates every standing query over e after a publish.
func (s *Server) notifyStanding(e *entry) {
	for _, sq := range s.standing.forDataset(e.name) {
		s.standing.evaluate(e, sq)
	}
}

// evaluate brings sq's answer up to date against e's current epoch.
func (g *standingRegistry) evaluate(e *entry, sq *standingQuery) {
	sq.evalMu.Lock()
	defer sq.evalMu.Unlock()

	sq.mu.Lock()
	closed := sq.closed
	sq.mu.Unlock()
	if closed {
		return
	}

	g.evals.Add(1)
	res, err := e.ds.TopK(sq.key.k)
	if err != nil {
		// An evaluation raced a reload/evict; the next publish retries.
		return
	}
	epoch := e.ds.Epoch()
	items := make([]QueryItem, len(res.Items))
	for i, it := range res.Items {
		items[i] = QueryItem{Rank: i + 1, Index: it.Index, ID: it.ID, Score: it.Score}
	}

	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.closed {
		return
	}
	changed := !sq.sameLocked(items)
	sq.epoch = epoch
	sq.items = items
	if changed || sq.ver == 0 {
		sq.ver++
		sq.broadcastLocked()
	}
}

// sameLocked reports whether items matches the current answer object for
// object and score for score; callers hold sq.mu.
func (sq *standingQuery) sameLocked(items []QueryItem) bool {
	if len(items) != len(sq.items) {
		return false
	}
	for i, it := range items {
		if it.ID != sq.items[i].ID || it.Score != sq.items[i].Score {
			return false
		}
	}
	return true
}

// SubscribeRequest is the POST /v1/datasets/{name}/subscribe body.
type SubscribeRequest struct {
	K int `json:"k"`
	// Algorithm is absent or IBIG, as on QueryRequest; the other four names
	// answer 400.
	Algorithm string `json:"algorithm,omitempty"`
	// AfterVersion (long-poll mode only) is the last version the caller has
	// seen: the request answers immediately while the standing answer is
	// newer, and parks until it becomes newer otherwise. Zero always
	// answers immediately with the current state.
	AfterVersion uint64 `json:"after_version,omitempty"`
	// WaitMillis (long-poll mode only) bounds the park; 0 means 30s. On
	// timeout the current (unchanged) state is returned and the caller
	// re-polls.
	WaitMillis int `json:"wait_millis,omitempty"`
}

const defaultSubscribeWait = 30 * time.Second

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, http.StatusServiceUnavailable, errDraining, "server: shutting down")
		return
	}
	var req SubscribeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.K <= 0 {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "k must be positive")
		return
	}
	if req.WaitMillis < 0 || int64(req.WaitMillis) > maxMillis {
		writeError(w, r, http.StatusBadRequest, errBadRequest, "wait_millis must be in [0, %d]", maxMillis)
		return
	}
	if !checkAlgorithm(w, r, req.Algorithm) {
		return
	}
	name := r.PathValue("name")
	e, ok := s.reg.get(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, errDatasetNotFound, "unknown dataset %q", name)
		return
	}
	if e.ds.Shards() > 0 {
		// Standing queries live off the single-node append/delta publish
		// path; a sharded dataset has no such path to hang them on.
		writeError(w, r, http.StatusNotImplemented, errNotSubscribable,
			"dataset %q is sharded; standing subscriptions need an unsharded dataset", name)
		return
	}

	sq, dirty := s.standing.acquire(standingKey{dataset: name, k: req.K})
	defer s.standing.release(sq, dirty)

	// First subscriber on this key: materialise the answer now so there is
	// a version-1 state to deliver. Subsequent subscribers see ver > 0 and
	// skip straight to the current snapshot.
	sq.mu.Lock()
	seeded := sq.ver > 0
	sq.mu.Unlock()
	if !seeded {
		s.standing.evaluate(e, sq)
	}

	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveSubscribeSSE(w, r, sq, dirty)
		return
	}
	s.serveSubscribePoll(w, r, sq, dirty, &req)
}

// serveSubscribeSSE streams the answer as server-sent events: the current
// state immediately, then one `result` event per change until the client
// disconnects, the server drains, or the dataset is evicted.
func (s *Server) serveSubscribeSSE(w http.ResponseWriter, r *http.Request, sq *standingQuery, dirty chan struct{}) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, errInternal, "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	var lastSent uint64
	for {
		sq.mu.Lock()
		ev := sq.snapshotLocked()
		sq.mu.Unlock()
		if ev.Version > lastSent {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: result\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
			lastSent = ev.Version
		}
		if ev.Closed {
			return
		}
		select {
		case <-dirty:
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

// serveSubscribePoll answers one long-poll round: immediately while the
// caller is behind, after the next change (or the wait budget) otherwise.
func (s *Server) serveSubscribePoll(w http.ResponseWriter, r *http.Request, sq *standingQuery, dirty chan struct{}, req *SubscribeRequest) {
	wait := defaultSubscribeWait
	if req.WaitMillis > 0 {
		wait = time.Duration(req.WaitMillis) * time.Millisecond
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		sq.mu.Lock()
		ev := sq.snapshotLocked()
		sq.mu.Unlock()
		if ev.Version > req.AfterVersion || ev.Closed {
			writeJSON(w, http.StatusOK, ev)
			return
		}
		select {
		case <-dirty:
		case <-timer.C:
			// Wait budget spent without a change: answer with the current
			// state so the caller can re-arm with the same after_version.
			writeJSON(w, http.StatusOK, ev)
			return
		case <-r.Context().Done():
			return
		case <-s.done:
			writeJSON(w, http.StatusOK, ev)
			return
		}
	}
}
