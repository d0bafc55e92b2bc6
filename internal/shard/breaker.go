package shard

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Policy tunes the fault-tolerance behaviour of a ReplicaSet: how many
// attempts a scatter call gets, how retries back off, when a second replica
// is hedged, and when a replica's circuit breaker opens. The zero value is
// not useful; start from DefaultPolicy and override fields.
type Policy struct {
	// MaxAttempts bounds the scatter calls one Partial may issue across the
	// set's replicas (first try included). <= 0 selects 3.
	MaxAttempts int
	// BaseBackoff is the pause before the first retry; each further retry
	// doubles it, capped at MaxBackoff, with jitter in [d/2, d] so replica
	// retries do not synchronize. <= 0 selects 5ms (cap 250ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential schedule.
	MaxBackoff time.Duration
	// AttemptTimeout bounds one scatter call to one replica; 0 leaves the
	// query deadline (and the HTTP client timeout) as the only bounds. The
	// attempt's expiry is a retryable replica failure, not a query failure.
	AttemptTimeout time.Duration
	// Hedge fires a duplicate scatter call at a second healthy replica when
	// the first has not answered after HedgeAfter; the first answer wins and
	// the loser is cancelled. Scatter calls are idempotent reads, so hedging
	// never changes an answer — only the tail latency.
	Hedge bool
	// HedgeAfter is the hedging trigger; 0 derives it from the replica set's
	// observed p99 scatter latency (no hedging until enough observations).
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's circuit breaker. <= 0 selects 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open probe. <= 0 selects 1s.
	BreakerCooldown time.Duration
}

// DefaultPolicy is the serving default: 3 attempts, 5ms..250ms backoff,
// hedging on observed p99, breakers opening after 5 consecutive failures
// with a 1s cooldown.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:      3,
		BaseBackoff:      5 * time.Millisecond,
		MaxBackoff:       250 * time.Millisecond,
		Hedge:            true,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
	}
}

// normalized fills unset fields with the defaults.
func (p Policy) normalized() Policy {
	d := DefaultPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = d.BreakerThreshold
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = d.BreakerCooldown
	}
	return p
}

// backoff returns the pause before retry number retry (1-based): capped
// exponential with jitter drawn by rnd into [d/2, d]. rnd may be nil for
// the deterministic upper bound (tests).
func (p Policy) backoff(retry int, rnd func() float64) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if rnd == nil {
		return d
	}
	half := d / 2
	return half + time.Duration(rnd()*float64(half))
}

// jitter is the production randomness source for backoff.
func jitter() float64 { return rand.Float64() }

// BreakerState is a replica circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed admits calls normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe call; its outcome closes or
	// re-opens the breaker.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one replica's circuit breaker: closed until BreakerThreshold
// consecutive failures, then open for the cooldown, then half-open for a
// single probe whose outcome decides the next state. A 409 fingerprint
// mismatch (a stale or divergent replica) trips it straight to open via
// trip — retrying a stale replica cannot succeed until it catches up. A 400
// or 413 refuses the request itself, as every replica would, and moves it
// nowhere (abstain).
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for unit tests

	mu        sync.Mutex
	state     BreakerState
	fails     int
	openUntil time.Time
	probing   bool // a half-open probe is in flight
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	if now == nil {
		now = time.Now
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether a call may proceed. The open→half-open transition
// happens here: the first allow after the cooldown IS the probe, and further
// allows are rejected until its outcome arrives.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Before(b.openUntil) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess closes the breaker and resets the failure run.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// onFailure extends the consecutive-failure run; at the threshold — or on a
// failed half-open probe — the breaker opens for the cooldown.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if b.state == BreakerHalfOpen {
		b.open()
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.open()
	}
}

// abstain ends an admitted call whose outcome says nothing about the replica
// (a 4xx refusal of the request itself): the state and the failure run stay
// as they were, and a half-open probe's turn passes to the next call.
func (b *breaker) abstain() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// trip opens the breaker immediately, bypassing the threshold — the stale-
// replica (409) path and the health-check quarantine path.
func (b *breaker) trip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.open()
}

// open transitions to BreakerOpen; callers hold b.mu.
func (b *breaker) open() {
	b.state = BreakerOpen
	b.fails = b.threshold
	b.openUntil = b.now().Add(b.cooldown)
}

// snapshot returns the current state without advancing it (an open breaker
// past its cooldown still reads open until a call probes it).
func (b *breaker) snapshot() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
