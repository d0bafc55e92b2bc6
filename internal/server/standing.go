package server

// Standing top-k subscriptions. A standing query is a (dataset, k) pair the
// server keeps continuously answered: every publish — local ingest fold,
// follower delta apply, full epoch import, reload — hands it an evaluation,
// a query submitted to the dataset's scheduler like any other, and returns
// at once. Subscribers are woken only when the ranked answer changed, and
// identical subscriptions share one standingQuery, so a thousand dashboards
// watching the same top-10 cost at most one evaluation per publish.
//
// Delivery is POST /v1/datasets/{name}/subscribe in two modes: with
// `Accept: text/event-stream` the connection stays open and each change is
// pushed as an SSE `result` event (the current answer is sent immediately
// on connect); otherwise the request is a long-poll — it answers
// immediately when the caller's after_version is stale, and parks up to
// wait_millis for the next change when it is current.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
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
	// ctx, under which the key evaluates, ends when the key closes (evicted,
	// last subscriber gone) or the server stops. mu guards the state below
	// and is never held across an engine call; running marks a goroutine
	// evaluating the key, and again asks it for one more pass.
	ctx            context.Context
	cancel         context.CancelFunc
	mu             sync.Mutex
	ver            uint64
	epoch          uint64
	items          []QueryItem
	closed         bool
	refs           int
	subs           map[chan struct{}]struct{}
	running, again bool
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

// standingRegistry owns every live standing query, the evaluation goroutines
// (wg) and the counters the metrics endpoint renders. ctx parents every key's.
type standingRegistry struct {
	mu     sync.Mutex
	qs     map[standingKey]*standingQuery
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	subscribers atomic.Int64 // connected subscribers right now
	evals       atomic.Int64 // evaluations submitted
}

func newStandingRegistry() *standingRegistry {
	g := &standingRegistry{qs: make(map[standingKey]*standingQuery)}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	return g
}

// stop ends every evaluation, and under mu no publish starts one after it.
func (g *standingRegistry) stop() {
	g.mu.Lock()
	g.cancel()
	g.mu.Unlock()
	g.wg.Wait()
}

// acquire returns the shared query for key, creating it on first use, and
// takes a reference plus a fresh dirty channel for this subscriber.
func (g *standingRegistry) acquire(key standingKey) (*standingQuery, chan struct{}) {
	g.mu.Lock()
	sq := g.qs[key]
	if sq == nil {
		sq = &standingQuery{key: key, subs: make(map[chan struct{}]struct{})}
		sq.ctx, sq.cancel = context.WithCancel(g.ctx)
		g.qs[key] = sq
	}
	ch := make(chan struct{}, 1)
	sq.mu.Lock()
	sq.refs++
	sq.subs[ch] = struct{}{}
	sq.mu.Unlock()
	g.mu.Unlock()
	g.subscribers.Add(1)
	return sq, ch
}

// release drops one subscriber; the last one out deletes the shared query
// so an idle key stops being re-evaluated on every publish.
func (g *standingRegistry) release(sq *standingQuery, ch chan struct{}) {
	g.subscribers.Add(-1)
	// References move under the registry lock, so no subscriber can acquire
	// the key between the last one's release and the delete.
	g.mu.Lock()
	defer g.mu.Unlock()
	sq.mu.Lock()
	defer sq.mu.Unlock()
	delete(sq.subs, ch)
	if sq.refs--; sq.refs == 0 {
		delete(g.qs, sq.key)
		sq.cancel()
	}
}

// dropDataset ends every subscription over an evicted dataset: the final
// broadcast carries closed=true and wakes both delivery modes.
func (g *standingRegistry) dropDataset(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for key, sq := range g.qs {
		if key.dataset != name {
			continue
		}
		sq.cancel()
		sq.mu.Lock()
		if !sq.closed {
			sq.closed = true
			sq.ver++
			sq.broadcastLocked()
		}
		sq.mu.Unlock()
	}
}

// notifyStanding hands every standing query over e an evaluation of its new
// epoch and returns at once. A key evaluates on one goroutine at a time, and
// the publishes that land meanwhile fold into one more pass.
func (s *Server) notifyStanding(e *entry) {
	g := s.standing
	g.mu.Lock()
	defer g.mu.Unlock()
	for key, sq := range g.qs {
		if key.dataset != e.name || sq.ctx.Err() != nil {
			continue
		}
		sq.mu.Lock()
		idle := !sq.running
		sq.running, sq.again = true, sq.running
		sq.mu.Unlock()
		if idle {
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				for more := true; more; {
					s.evaluate(sq.ctx, e, sq)
					sq.mu.Lock()
					more = sq.again && sq.ctx.Err() == nil
					sq.running, sq.again = more, false
					sq.mu.Unlock()
				}
			}()
		}
	}
}

// evaluate submits sq's key to e's scheduler under ctx and -query-timeout,
// and stores the answer unless one from a later epoch is stored already:
// answers on equal epochs are identical, so no version moves backwards.
func (s *Server) evaluate(ctx context.Context, e *entry, sq *standingQuery) {
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	s.standing.evals.Add(1)
	start, tr := time.Now(), obs.New("standing")
	rep, err := e.sch.submit(ctx, queryKey{K: sq.key.k}, tr.Root())
	if err == nil {
		err = rep.err
	}
	s.logTrace(tr, obs.QueryEntry{Time: start, Dataset: e.name, K: sq.key.k, Algorithm: "standing/" + servedAlgorithm}, err)
	if err != nil {
		// Cancelled, timed out, refused or failed; the next publish retries.
		return
	}
	items := queryItems(rep.res.Items)
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.closed || rep.st.Epoch < sq.epoch {
		return
	}
	changed := !sq.sameLocked(items)
	sq.epoch, sq.items = rep.st.Epoch, items
	if changed {
		sq.ver++
		sq.broadcastLocked()
	}
}

// sameLocked reports whether items matches the current answer object for
// object and score for score; callers hold sq.mu.
func (sq *standingQuery) sameLocked(items []QueryItem) bool {
	return slices.EqualFunc(items, sq.items, func(a, b QueryItem) bool { return a.ID == b.ID && a.Score == b.Score })
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

	// Until the key has an answer, this subscriber evaluates it on its own
	// request's context, so there is a version-1 state to deliver.
	sq.mu.Lock()
	seeded := sq.ver > 0
	sq.mu.Unlock()
	if !seeded {
		s.evaluate(r.Context(), e, sq)
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
