// Package shardtest holds the shard layer's seeded fault injector: a
// shard.Backend wrapper and an http.RoundTripper that add latency, errors,
// hangs and stale answers. Only tests import it, so no serving binary
// links it.
package shardtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

// ChaosConfig is one seeded fault schedule. Each intercepted call draws one
// fault (or none) from the probabilities; the draws are deterministic per
// seed, so a failing schedule replays exactly.
type ChaosConfig struct {
	// Seed fixes the fault schedule.
	Seed uint64
	// LatencyP is the probability of injecting extra latency, uniform in
	// (0, Latency].
	LatencyP float64
	// Latency is the injected-latency ceiling (default 5ms when LatencyP > 0).
	Latency time.Duration
	// ErrorP is the probability of failing the call with a transport-style
	// error (retryable).
	ErrorP float64
	// TimeoutP is the probability of hanging until the call's context
	// expires — the unresponsive-replica fault; only an attempt timeout or
	// the query deadline cuts it loose.
	TimeoutP float64
	// StaleP is the probability of answering as a stale replica: a 409
	// fingerprint-mismatch (shard.PeerError on a shard.Backend, a fabricated
	// 409 response on a RoundTripper). Non-retryable by design; trips breakers.
	StaleP float64
}

// ChaosCounts reports how many faults a Chaos injected, by kind.
type ChaosCounts struct {
	Latencies int64 `json:"latencies"`
	Errors    int64 `json:"errors"`
	Timeouts  int64 `json:"timeouts"`
	Stales    int64 `json:"stales"`
}

// chaosFault enumerates the draw outcomes.
type chaosFault int

const (
	faultNone chaosFault = iota
	faultLatency
	faultError
	faultTimeout
	faultStale
)

// Chaos is a seeded fault injector shared by any number of ChaosBackend and
// ChaosTransport wrappers, so one schedule (and one set of counters) spans
// a whole replica topology. Safe for concurrent use.
type Chaos struct {
	cfg ChaosConfig

	mu  sync.Mutex
	rnd *rand.Rand

	latencies atomic.Int64
	errors    atomic.Int64
	timeouts  atomic.Int64
	stales    atomic.Int64
}

// NewChaos builds an injector for the given schedule.
func NewChaos(cfg ChaosConfig) *Chaos {
	if cfg.Latency <= 0 {
		cfg.Latency = 5 * time.Millisecond
	}
	return &Chaos{cfg: cfg, rnd: rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15))}
}

// Counts snapshots the injected-fault counters.
func (c *Chaos) Counts() ChaosCounts {
	return ChaosCounts{
		Latencies: c.latencies.Load(),
		Errors:    c.errors.Load(),
		Timeouts:  c.timeouts.Load(),
		Stales:    c.stales.Load(),
	}
}

// draw picks this call's fault. The cumulative-probability walk means the
// configured probabilities are independent knobs as long as they sum to < 1.
func (c *Chaos) draw() (chaosFault, time.Duration) {
	c.mu.Lock()
	p := c.rnd.Float64()
	lat := time.Duration(c.rnd.Float64() * float64(c.cfg.Latency))
	c.mu.Unlock()
	switch {
	case p < c.cfg.ErrorP:
		c.errors.Add(1)
		return faultError, 0
	case p < c.cfg.ErrorP+c.cfg.TimeoutP:
		c.timeouts.Add(1)
		return faultTimeout, 0
	case p < c.cfg.ErrorP+c.cfg.TimeoutP+c.cfg.StaleP:
		c.stales.Add(1)
		return faultStale, 0
	case p < c.cfg.ErrorP+c.cfg.TimeoutP+c.cfg.StaleP+c.cfg.LatencyP:
		c.latencies.Add(1)
		return faultLatency, lat
	}
	return faultNone, 0
}

// ChaosBackend wraps a shard.Backend with fault injection on Partial.
// Rows and Fingerprint pass through untouched — chaos perturbs delivery,
// never identity.
type ChaosBackend struct {
	inner shard.Backend
	c     *Chaos
}

// NewChaosBackend wraps inner with injector c.
func NewChaosBackend(inner shard.Backend, c *Chaos) *ChaosBackend {
	return &ChaosBackend{inner: inner, c: c}
}

// Rows implements Backend.
func (b *ChaosBackend) Rows() int { return b.inner.Rows() }

// Fingerprint implements Backend.
func (b *ChaosBackend) Fingerprint() uint64 { return b.inner.Fingerprint() }

// Partial implements shard.Backend with the drawn fault applied first.
func (b *ChaosBackend) Partial(ctx context.Context, req *shard.Request) ([]int32, error) {
	switch fault, lat := b.c.draw(); fault {
	case faultError:
		return nil, fmt.Errorf("chaos: injected transport error")
	case faultTimeout:
		<-ctx.Done()
		return nil, ctx.Err()
	case faultStale:
		return nil, &shard.PeerError{URL: "chaos", Status: http.StatusConflict, Msg: "chaos: injected stale fingerprint"}
	case faultLatency:
		select {
		case <-time.After(lat):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.Partial(ctx, req)
}

// ChaosTransport wraps an http.RoundTripper with the same fault schedule,
// for injecting faults under a Remote (and everything else sharing the
// client) without touching the peer. A stale draw fabricates the peer's
// 409 fingerprint-mismatch answer; an error draw is a transport failure; a
// timeout draw hangs until the request's context expires.
type ChaosTransport struct {
	inner http.RoundTripper
	c     *Chaos
}

// NewChaosTransport wraps inner (nil selects http.DefaultTransport).
func NewChaosTransport(inner http.RoundTripper, c *Chaos) *ChaosTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &ChaosTransport{inner: inner, c: c}
}

// RoundTrip implements http.RoundTripper.
func (t *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch fault, lat := t.c.draw(); fault {
	case faultError:
		return nil, fmt.Errorf("chaos: injected transport error")
	case faultTimeout:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case faultStale:
		body, _ := json.Marshal(shard.WireError{Error: "chaos: injected stale fingerprint"})
		return &http.Response{
			StatusCode:    http.StatusConflict,
			Status:        "409 Conflict",
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case faultLatency:
		select {
		case <-time.After(lat):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return t.inner.RoundTrip(req)
}
