package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// Peer is the shard-protocol server side: it answers /v1/shard/query against
// row-range slices of datasets resolved by name, caching one warm Local —
// slice plus its indexes — per (dataset, range). A peer is just a tkdserver
// that happens to be listed in some coordinator's -peers flag; it serves the
// full dataset to direct clients and shard slices to coordinators, from the
// same registry entry. It also answers GET /v1/shard/health — the cheap
// probe a coordinator's replica sets use to quarantine divergent peers.
type Peer struct {
	// resolve returns the named dataset's current frozen epoch data and its
	// epoch counter. The returned pointer doubles as the epoch identity: a
	// reload publishes new data, the pointer changes, and stale Locals
	// rebuild on the next request.
	resolve func(name string) (*data.Dataset, uint64, bool)

	mu     sync.Mutex
	locals map[peerKey]*peerEntry

	// qlog, when set, records every shard sub-query this peer serves, so the
	// peer's own GET /v1/debug/queries shows coordinator traffic alongside
	// direct client queries — correlated by the propagated trace ID.
	qlog *obs.QueryLog
}

type peerKey struct {
	name     string
	from, to int
}

type peerEntry struct {
	identity *data.Dataset // the epoch the entry was built from
	fp       uint64
	local    *Local

	// prev is the range's retired predecessor, kept exactly one epoch deep:
	// a reload on this peer must not fail scatter calls from coordinators
	// whose queries are still in flight on the pre-reload epoch — "in-flight
	// queries finish on the old epoch" has to hold across processes, not
	// just within one. Replaced on the next reload, dropped by Evict.
	prev *peerEntry
}

// NewPeer wraps a resolver.
func NewPeer(resolve func(name string) (*data.Dataset, uint64, bool)) *Peer {
	return &Peer{resolve: resolve, locals: make(map[peerKey]*peerEntry)}
}

// SetQueryLog attaches the ring buffer shard sub-queries are recorded into.
// Call before serving; nil (the default) disables recording.
func (p *Peer) SetQueryLog(q *obs.QueryLog) { p.qlog = q }

// local returns the warm Local for the request's range, rebuilding when the
// dataset's epoch moved underneath it — the replaced entry is retained as
// the new one's prev, so wantFP can still select the retired epoch (a
// coordinator mid-query when this peer reloaded). Building a fresh entry
// also sweeps the dataset's stale ones — ranges keyed to epochs older than
// the one just replaced (a reload that changed the row count changes the
// coordinator's shard boundaries, so the old keys would otherwise pin their
// slices and indexes forever).
func (p *Peer) local(ds *data.Dataset, key peerKey, wantFP uint64) (*Local, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.locals[key]
	if !ok || e.identity != ds {
		// The epoch this range is leaving is every other range's grace epoch
		// too: their entries stay until their own next request retires them
		// into prev (or the epoch after sweeps them).
		var leaving *data.Dataset
		if ok {
			leaving = e.identity
		}
		live := 0
		for k, o := range p.locals {
			if k.name != key.name || k == key {
				continue
			}
			if o.identity != ds && o.identity != leaving {
				delete(p.locals, k)
			} else {
				live++
			}
		}
		if live >= maxRangesPerDataset {
			// More distinct ranges than any sane coordinator topology implies —
			// a misconfigured second coordinator or a client probing ranges.
			// Each entry can hold a full index over its slice, so reset the
			// dataset's cache instead of letting it grow without bound; a
			// legitimate coordinator simply rebuilds its few ranges.
			for k := range p.locals {
				if k.name == key.name {
					delete(p.locals, k)
				}
			}
			e, ok = nil, false
		}
		l := NewLocal(ds, key.from, key.to)
		fresh := &peerEntry{identity: ds, fp: l.Fingerprint(), local: l}
		if ok {
			e.prev = nil // one epoch of history, never a chain
			fresh.prev = e
		}
		p.locals[key] = fresh
		e = fresh
	}
	if wantFP != 0 && wantFP != e.fp && e.prev != nil && e.prev.fp == wantFP {
		return e.prev.local, e.prev.fp
	}
	return e.local, e.fp
}

// maxRangesPerDataset bounds the per-dataset shard cache: comfortably above
// any real shard count, far below what lets arbitrary range probing pin
// unbounded index memory.
const maxRangesPerDataset = 64

// Evict drops every cached shard of name — the hook a serving layer calls
// when it removes the dataset from its registry, so the peer cache cannot
// pin an evicted dataset's slices and indexes.
func (p *Peer) Evict(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.locals {
		if k.name == name {
			delete(p.locals, k)
		}
	}
}

// writeError emits a WireError with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(WireError{Error: fmt.Sprintf(format, args...)})
}

// maxWireBodyBytes caps a shard-query request body. A full window of 64-dim
// candidates is well under 1 MiB; 8 MiB leaves headroom for any legitimate
// topology while keeping a hostile (or buggy) coordinator from ballooning
// the decoder.
const maxWireBodyBytes = 8 << 20

// maxWireCandidates caps one scatter batch — far above core.WindowSize,
// far below what lets one request monopolize a peer.
const maxWireCandidates = 16384

// ServeHTTP handles POST /v1/shard/query. When the request carries a valid
// W3C traceparent header the call is traced under the propagated trace ID and
// the response reports the peer-side span summary; a malformed or absent
// header only disables tracing — it never fails the request.
func (p *Peer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	var tr *obs.Trace
	if tp := r.Header.Get("traceparent"); tp != "" {
		if _, _, ok := obs.ParseTraceparent(tp); ok {
			tr = obs.Adopt(tp, "shard")
		}
	}
	var req WireRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWireBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad shard request body: %v", err)
		return
	}
	if len(req.Candidates) > maxWireCandidates {
		writeError(w, http.StatusBadRequest, "batch of %d candidates exceeds the %d cap", len(req.Candidates), maxWireCandidates)
		return
	}
	if req.Algorithm != wireAlgorithm { // an older coordinator's other plan fails closed
		writeError(w, http.StatusBadRequest, "shard: algorithm %q is not served; the shard protocol serves %s only", req.Algorithm, wireAlgorithm)
		return
	}
	mode, err := ParseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkBudgets(mode, len(req.Budgets), len(req.Candidates)); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ds, _, ok := p.resolve(req.Dataset)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	if req.From < 0 || req.From > req.To {
		writeError(w, http.StatusBadRequest, "range [%d,%d) is malformed", req.From, req.To)
		return
	}
	if req.To > ds.Len() {
		// A well-formed range past this peer's rows means its copy is
		// shorter than the coordinator's — a follower behind on appends. Like
		// a fingerprint mismatch, that is this replica's state, not the
		// request's fault: another replica may hold the rows.
		writeError(w, http.StatusConflict, "range [%d,%d) out of bounds for %d rows", req.From, req.To, ds.Len())
		return
	}
	local, fp := p.local(ds, peerKey{name: req.Dataset, from: req.From, to: req.To}, req.Fingerprint)
	if fp != req.Fingerprint {
		// The coordinator and this peer disagree on the shard's contents
		// beyond the one-epoch grace the cache retains — a lagging reload or
		// a different source file. Refusing keeps the merge exact; the
		// coordinator surfaces the error to the client.
		writeError(w, http.StatusConflict,
			"shard fingerprint mismatch for %q[%d:%d): peer has %x, coordinator wants %x",
			req.Dataset, req.From, req.To, fp, req.Fingerprint)
		return
	}
	cands, err := decodeCandidates(ds.Dim(), req.Candidates)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	root := tr.Root()
	root.SetStr("dataset", req.Dataset)
	root.SetStr("mode", req.Mode)
	root.SetInt("from", int64(req.From))
	root.SetInt("to", int64(req.To))
	root.SetInt("candidates", int64(len(cands)))
	results, err := local.Partial(r.Context(), &Request{Mode: mode, Tau: req.Tau, Residual: req.Residual, Cands: cands, Budgets: req.Budgets})
	root.End()
	p.record(tr, &req, time.Since(started), err)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := WireResponse{Results: results}
	if tr != nil {
		out.Trace = &obs.RemoteSummary{
			TraceID:   tr.ID().String(),
			SpanID:    root.ID().String(),
			ServiceUS: time.Since(started).Microseconds(),
			Rows:      local.Rows(),
			Results:   len(results),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// record adds one served shard sub-query to the peer's query log, when one is
// attached. Sub-queries have no k of their own; the algorithm column carries
// the wire algorithm plus the phase so bounds and score batches are told
// apart in /v1/debug/queries.
func (p *Peer) record(tr *obs.Trace, req *WireRequest, d time.Duration, err error) {
	if p.qlog == nil {
		return
	}
	e := obs.QueryEntry{
		Time:      time.Now(),
		Dataset:   req.Dataset,
		Algorithm: req.Algorithm + "/" + req.Mode,
		Duration:  d,
		Trace:     tr,
	}
	if err != nil {
		e.Err = err.Error()
	}
	p.qlog.Add(e)
}

// ServeHealth handles GET /v1/shard/health?dataset=NAME&from=A&to=B: the
// replica-probe endpoint. It answers from the same warm per-range cache the
// query path uses, so a probe costs one map lookup after the first.
func (p *Peer) ServeHealth(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("dataset")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing dataset parameter")
		return
	}
	from, err := strconv.Atoi(q.Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad from parameter: %v", err)
		return
	}
	to, err := strconv.Atoi(q.Get("to"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad to parameter: %v", err)
		return
	}
	ds, epoch, ok := p.resolve(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	if from < 0 || to > ds.Len() || from > to {
		writeError(w, http.StatusBadRequest, "range [%d,%d) out of bounds for %d rows", from, to, ds.Len())
		return
	}
	// Probes always report the current epoch (wantFP 0): health is about
	// what the peer serves now, never the retained grace epoch.
	local, fp := p.local(ds, peerKey{name: name, from: from, to: to}, 0)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(WireHealth{
		Dataset:     name,
		From:        from,
		To:          to,
		Rows:        local.Rows(),
		Fingerprint: fp,
		Epoch:       epoch,
	})
}
