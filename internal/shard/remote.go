package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// The wire protocol: POST {peer}/v1/shard/query with a WireRequest, answered
// by a WireResponse. One request carries one scatter batch (bounds or exact
// scores) for one row range of one named dataset. The shard fingerprint —
// the data.Dataset fingerprint of the row range — rides along so a peer
// serving different data (a lagging reload, a different file) answers 409
// instead of silently corrupting the merge.

// WireCandidate is one candidate on the wire. Values holds 0 in unobserved
// positions (JSON cannot carry NaN); Mask says which positions are real.
type WireCandidate struct {
	Values []float64 `json:"v"`
	Mask   uint64    `json:"m"`
}

// WireRequest is the POST /v1/shard/query body. Budgets is optional: absent
// (the only shape before it existed) asks a "scores" request for exact
// partial scores; present, it carries Request.Budgets and lets the peer
// answer -1 (Pruned) per candidate. A peer decodes with
// DisallowUnknownFields, so peers are upgraded before coordinators. Older
// peers require Algorithm too; it is always wireAlgorithm, and a peer
// answers any other value 400.
type WireRequest struct {
	Dataset     string          `json:"dataset"`
	From        int             `json:"from"`
	To          int             `json:"to"`
	Fingerprint uint64          `json:"fingerprint"`
	Algorithm   string          `json:"algorithm"`
	Mode        string          `json:"mode"` // "bounds" or "scores"
	Tau         int             `json:"tau"`
	Residual    int             `json:"residual"`
	Candidates  []WireCandidate `json:"candidates"`
	Budgets     []int           `json:"budgets,omitempty"`
}

// WireResponse is the answer: one entry per candidate. Trace, when present,
// is the peer-side span summary of the call — stamped whenever the request
// carried a valid traceparent header — letting the coordinator's trace show
// remote service time next to the wire round trip. Older peers simply omit
// it; the decoder tolerates both directions.
type WireResponse struct {
	Results []int32            `json:"results"`
	Trace   *obs.RemoteSummary `json:"trace,omitempty"`
}

// WireError is the JSON error body of a non-200 answer.
type WireError struct {
	Error string `json:"error"`
}

// WireHealth is the GET /v1/shard/health answer: what the peer would serve
// for the row range right now. The coordinator's replica sets compare the
// fingerprint against their expectation and quarantine divergence; Epoch is
// the peer's current epoch, which the coordinator does not read.
type WireHealth struct {
	Dataset     string `json:"dataset"`
	From        int    `json:"from"`
	To          int    `json:"to"`
	Rows        int    `json:"rows"`
	Fingerprint uint64 `json:"fingerprint"`
	Epoch       uint64 `json:"epoch"`
}

// PeerError is a peer's non-200 answer, preserving the status so callers
// can classify it: 409 marks a stale replica (never retried, breaker
// tripped), 5xx is retryable, other 4xx means the request itself is bad. A
// 200 whose body fails validation is reported as 502 — what a gateway calls
// an invalid upstream answer — so the replica set retries elsewhere.
type PeerError struct {
	URL    string
	Status int
	Msg    string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("shard: peer %s: %s (status %d)", e.URL, e.Msg, e.Status)
}

// wireAlgorithm is the one algorithm the shard protocol serves.
const wireAlgorithm = "IBIG"

// modeString maps a Mode onto the wire.
func modeString(m Mode) string {
	if m == ModeBounds {
		return "bounds"
	}
	return "scores"
}

// ParseMode resolves a wire mode string.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "bounds":
		return ModeBounds, nil
	case "scores":
		return ModeScores, nil
	}
	return 0, fmt.Errorf("shard: unknown mode %q", s)
}

// Remote is a shard served by a tkdserver peer: the peer holds the full
// dataset under the same name and slices the row range on demand, so every
// peer runs identically and the coordinator's -peers list is pure topology.
type Remote struct {
	client  *http.Client
	baseURL string
	dataset string
	from    int
	to      int
	fp      uint64
}

// DefaultRemoteTimeout bounds a peer round trip when the caller supplies no
// client of its own; tkdserver plumbs -peer-timeout here.
const DefaultRemoteTimeout = 30 * time.Second

// NewRemote points a shard at peer baseURL, covering rows [from, to) of the
// named dataset whose slice fingerprint is fp. client may be nil (a default
// with DefaultRemoteTimeout is used); per-call deadlines ride the context
// handed to Partial either way.
func NewRemote(client *http.Client, baseURL, dataset string, from, to int, fp uint64) *Remote {
	if client == nil {
		client = &http.Client{Timeout: DefaultRemoteTimeout}
	}
	return &Remote{client: client, baseURL: baseURL, dataset: dataset, from: from, to: to, fp: fp}
}

// Rows implements Backend.
func (r *Remote) Rows() int { return r.to - r.from }

// Fingerprint implements Backend.
func (r *Remote) Fingerprint() uint64 { return r.fp }

// Partial implements Backend: one HTTP round trip per scatter batch,
// cancelled with ctx. A traced call (req.Span) carries the span as its
// traceparent and records the peer's summary in it.
func (r *Remote) Partial(ctx context.Context, req *Request) ([]int32, error) {
	wr := WireRequest{
		Dataset:     r.dataset,
		From:        r.from,
		To:          r.to,
		Fingerprint: r.fp,
		Algorithm:   wireAlgorithm,
		Mode:        modeString(req.Mode),
		Tau:         req.Tau,
		Residual:    req.Residual,
		Candidates:  make([]WireCandidate, len(req.Cands)),
		Budgets:     req.Budgets,
	}
	for i, c := range req.Cands {
		vals := make([]float64, len(c.Values))
		for d, v := range c.Values {
			if c.Mask&(1<<uint(d)) != 0 {
				vals[d] = v
			}
		}
		wr.Candidates[i] = WireCandidate{Values: vals, Mask: c.Mask}
	}
	body, err := json.Marshal(wr)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.baseURL+"/v1/shard/query", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("shard: peer %s: %w", r.baseURL, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	sp := req.Span
	if tp := sp.Traceparent(); tp != "" {
		// Cross-process propagation: the peer adopts this trace ID, so its
		// own slow-query log correlates with the coordinator's.
		hreq.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		// Surface the context's own error so callers can tell a dead query
		// from a dead replica (a transport error wrapping ctx cancellation
		// must not read as a replica failure).
		if ce := ctx.Err(); ce != nil {
			return nil, ce
		}
		return nil, fmt.Errorf("shard: peer %s: %w", r.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we WireError
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&we) == nil && we.Error != "" {
			msg = we.Error
		}
		return nil, &PeerError{URL: r.baseURL, Status: resp.StatusCode, Msg: msg}
	}
	// A result is an int32 (at most 11 bytes and a comma); the envelope and
	// the trace summary fit in the fixed part.
	lr := &io.LimitedReader{R: resp.Body, N: 4096 + 12*int64(len(req.Cands))}
	var out WireResponse
	if err := json.NewDecoder(lr).Decode(&out); err != nil {
		if lr.N <= 0 {
			err = fmt.Errorf("body exceeds the cap for %d candidates", len(req.Cands))
		}
		return nil, r.badResponse("decoding response: %v", err)
	}
	if err := r.checkResults(req, out.Results); err != nil {
		return nil, err
	}
	sp.SetRemote(out.Trace)
	return out.Results, nil
}

// badResponse is the fail-closed error for a 200 answer that cannot be
// trusted; see PeerError.
func (r *Remote) badResponse(format string, args ...any) error {
	return &PeerError{URL: r.baseURL, Status: http.StatusBadGateway, Msg: fmt.Sprintf(format, args...)}
}

// checkResults holds a peer's 200 answer to what this shard can say: one
// result per candidate, a bound no lower than 0, a partial score within the
// shard's row count — or Pruned, when the request carried budgets. Anything
// else would corrupt the coordinator's sums silently.
func (r *Remote) checkResults(req *Request, results []int32) error {
	if len(results) != len(req.Cands) {
		return r.badResponse("%d results for %d candidates", len(results), len(req.Cands))
	}
	for i, v := range results {
		switch {
		case v == Pruned && req.Mode == ModeScores && len(req.Budgets) > 0:
		case v < 0:
			return r.badResponse("result %d is %d", i, v)
		case req.Mode == ModeScores && int(v) > r.Rows():
			return r.badResponse("partial score %d of candidate %d exceeds the shard's %d rows", v, i, r.Rows())
		}
	}
	return nil
}

// Health implements HealthChecker: one cheap GET /v1/shard/health round
// trip asking the peer what it would serve for this shard's row range.
func (r *Remote) Health(ctx context.Context) (HealthInfo, error) {
	u := fmt.Sprintf("%s/v1/shard/health?dataset=%s&from=%d&to=%d",
		r.baseURL, url.QueryEscape(r.dataset), r.from, r.to)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return HealthInfo{}, fmt.Errorf("shard: peer %s: %w", r.baseURL, err)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		if ce := ctx.Err(); ce != nil {
			return HealthInfo{}, ce
		}
		return HealthInfo{}, fmt.Errorf("shard: peer %s: %w", r.baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var we WireError
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&we) == nil && we.Error != "" {
			msg = we.Error
		}
		return HealthInfo{}, &PeerError{URL: r.baseURL, Status: resp.StatusCode, Msg: msg}
	}
	var wh WireHealth
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&wh); err != nil {
		return HealthInfo{}, fmt.Errorf("shard: peer %s: decoding health: %w", r.baseURL, err)
	}
	return HealthInfo{Rows: wh.Rows, Fingerprint: wh.Fingerprint}, nil
}

// decodeCandidates reconstructs data.Objects from the wire (NaN restored in
// unobserved positions, preserving the data-model invariant).
func decodeCandidates(dim int, wcs []WireCandidate) ([]*data.Object, error) {
	out := make([]*data.Object, len(wcs))
	for i, wc := range wcs {
		if len(wc.Values) != dim {
			return nil, fmt.Errorf("shard: candidate %d has %d values, want %d", i, len(wc.Values), dim)
		}
		if wc.Mask == 0 {
			return nil, fmt.Errorf("shard: candidate %d has no observed dimension", i)
		}
		if dim < 64 && wc.Mask>>uint(dim) != 0 {
			return nil, fmt.Errorf("shard: candidate %d observes dimensions beyond %d", i, dim)
		}
		o := &data.Object{Values: make([]float64, dim), Mask: wc.Mask}
		for d := 0; d < dim; d++ {
			if wc.Mask&(1<<uint(d)) != 0 {
				o.Values[d] = wc.Values[d]
			} else {
				o.Values[d] = math.NaN()
			}
		}
		out[i] = o
	}
	return out, nil
}
