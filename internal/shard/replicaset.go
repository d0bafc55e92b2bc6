package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// HealthInfo is a replica's answer to a health probe: what it would serve
// for the shard's row range right now.
type HealthInfo struct {
	Rows        int
	Fingerprint uint64
}

// HealthChecker is implemented by backends that can answer a cheap health
// probe without scoring anything (Remote via GET /v1/shard/health, Local
// from its frozen slice).
type HealthChecker interface {
	Health(ctx context.Context) (HealthInfo, error)
}

// Unavailable reports that a shard produced no answer: every replica is
// either breaker-open or failed within the attempt budget. It is the typed
// fail-closed error — and the signal the coordinator's AllowPartial mode
// turns into a degraded (but still exact-over-live-rows) answer.
type Unavailable struct {
	// Shard is the coordinator's shard index.
	Shard int
	// Last is the final replica error, nil when no replica admitted a call.
	Last error
}

func (u *Unavailable) Error() string {
	if u.Last == nil {
		return fmt.Sprintf("shard %d unavailable: every replica's breaker is open", u.Shard)
	}
	return fmt.Sprintf("shard %d unavailable: %v", u.Shard, u.Last)
}

func (u *Unavailable) Unwrap() error { return u.Last }

// isStale reports a 409: the replica serves different bytes than the
// coordinator expects (a lagging reload, a divergent file) or fewer rows than
// the range asks (a follower behind on appends). Retrying it cannot succeed;
// the replica is quarantined instead.
func isStale(err error) bool {
	var pe *PeerError
	return errors.As(err, &pe) && pe.Status == statusConflict
}

// isRefusal reports a peer's refusal of the request itself — a 400 (a body,
// candidate, algorithm, mode or budget it rejects) or a 413 (a body over the
// cap) — which every replica answers alike, so it says nothing about the
// replica's health. Other 4xx answers are the replica's own state: a 404
// "unknown dataset" from a replica that evicted or has not loaded it, a 409
// from one whose copy is stale or short, a 429 from one that is overloaded.
func isRefusal(err error) bool {
	var pe *PeerError
	return errors.As(err, &pe) && (pe.Status == statusBadRequest || pe.Status == statusTooLarge)
}

// retryable classifies replica errors worth another attempt: transport
// failures, timeouts and 5xx answers. 4xx answers (the coordinator sent a
// bad request — another replica will refuse it identically) and context
// errors are not.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *PeerError
	if errors.As(err, &pe) {
		return pe.Status >= 500 || pe.Status == statusTooManyRequests
	}
	return true // transport-level failure
}

const (
	statusBadRequest      = 400
	statusConflict        = 409
	statusTooLarge        = 413
	statusTooManyRequests = 429
)

// replica pairs one backend with its circuit breaker.
type replica struct {
	idx int
	b   Backend
	br  *breaker
}

// ReplicaSet serves one shard from N equivalent replicas behind the plain
// Backend interface, so the coordinator cannot tell a replicated shard from
// a single one. Reads round-robin across breaker-admitting replicas; a
// failed call retries on the next healthy replica with capped exponential
// backoff (never for a 409 — that trips the replica's breaker and moves on
// immediately); an optional hedge duplicates a slow call on a second
// replica and takes the first answer. All replicas must serve the same rows
// and fingerprint — the scatter-gather merge is only exact when every
// replica of a shard answers identically.
type ReplicaSet struct {
	shard int
	rows  int
	fp    uint64
	pol   Policy
	met   *Metrics
	reps  []*replica
	next  atomic.Uint64
	lat   obs.Histogram // successful scatter-call latencies; the auto-hedge source

	healthStarted atomic.Bool
	stop          chan struct{}
	stopOnce      sync.Once
	wg            sync.WaitGroup
}

// NewReplicaSet wraps backends (all serving shard index shard) behind one
// Backend. Every backend must report the same Rows and Fingerprint. met may
// be nil (no metrics collected).
func NewReplicaSet(shard int, backends []Backend, pol Policy, met *Metrics) (*ReplicaSet, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("shard: replica set needs at least one backend")
	}
	pol = pol.normalized()
	if met == nil {
		met = NewMetrics(0)
	}
	rs := &ReplicaSet{
		shard: shard,
		rows:  backends[0].Rows(),
		fp:    backends[0].Fingerprint(),
		pol:   pol,
		met:   met,
		reps:  make([]*replica, len(backends)),
		stop:  make(chan struct{}),
	}
	for i, b := range backends {
		if b.Rows() != rs.rows || b.Fingerprint() != rs.fp {
			return nil, fmt.Errorf("shard: replica %d of shard %d serves rows=%d fp=%x, want rows=%d fp=%x",
				i, shard, b.Rows(), b.Fingerprint(), rs.rows, rs.fp)
		}
		rs.reps[i] = &replica{idx: i, b: b, br: newBreaker(pol.BreakerThreshold, pol.BreakerCooldown, nil)}
	}
	return rs, nil
}

// Rows implements Backend.
func (rs *ReplicaSet) Rows() int { return rs.rows }

// Fingerprint implements Backend.
func (rs *ReplicaSet) Fingerprint() uint64 { return rs.fp }

// Replicas returns the replica count.
func (rs *ReplicaSet) Replicas() int { return len(rs.reps) }

// States snapshots each replica's breaker state, in replica order.
func (rs *ReplicaSet) States() []BreakerState {
	out := make([]BreakerState, len(rs.reps))
	for i, r := range rs.reps {
		out[i] = r.br.snapshot()
	}
	return out
}

// pick returns the next replica whose breaker admits a call, round-robin,
// skipping exclude. ok is false when every admissible replica is exhausted.
func (rs *ReplicaSet) pick(exclude *replica) (*replica, bool) {
	n := len(rs.reps)
	// Reduce the counter in uint64 space before converting: a plain
	// int(Add(1)) goes negative once the counter passes MaxInt and a
	// negative start makes (start+i)%n a negative index.
	start := int(rs.next.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		r := rs.reps[(start+i)%n]
		if r == exclude {
			continue
		}
		if r.br.allow() {
			return r, true
		}
	}
	return nil, false
}

// Partial implements Backend: the retry loop over the replicas. A context
// error is the query's problem and propagates untouched; everything else is
// a replica failure that feeds its breaker and, within the attempt budget,
// retries elsewhere. When the budget or the replicas run out, the typed
// Unavailable error reports the shard as having no answer.
func (rs *ReplicaSet) Partial(ctx context.Context, req *Request) ([]int32, error) {
	var last error
	for attempt := 1; attempt <= rs.pol.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, ok := rs.pick(nil)
		if !ok {
			return nil, &Unavailable{Shard: rs.shard, Last: last}
		}
		res, err := rs.once(ctx, r, req)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !retryable(err) && !isStale(err) {
			return nil, err
		}
		last = err
		if attempt == rs.pol.MaxAttempts {
			break
		}
		rs.met.retries.Add(1)
		if isStale(err) {
			// The replica is quarantined (trip happened in call); another
			// replica may hold the right bytes — switch with no backoff,
			// there is nothing transient to wait out.
			continue
		}
		// The backoff wait is its own span: in a trace it reads as dead time
		// attributable to retries, and the server folds it into the "retry"
		// stage histogram.
		rsp := req.Span.StartChild("retry")
		rsp.SetInt("attempt", int64(attempt))
		rsp.SetStr("error", err.Error())
		select {
		case <-time.After(rs.pol.backoff(attempt, jitter)):
			rsp.End()
		case <-ctx.Done():
			rsp.End()
			return nil, ctx.Err()
		}
	}
	return nil, &Unavailable{Shard: rs.shard, Last: last}
}

// classifyPair ranks the two failures of a lost hedge race for attribution:
// a stale 409 wins (Partial must quarantine-and-switch), then a retryable
// error (Partial must back off and retry), then the primary's error. Without
// this ranking the returned error — and therefore whether Partial retries,
// switches replicas or fails the query fast — would depend on which of the
// two calls happened to land first.
func classifyPair(primary, hedge error) error {
	switch {
	case hedge == nil:
		return primary
	case primary == nil:
		return hedge
	case isStale(primary):
		return primary
	case isStale(hedge):
		return hedge
	case retryable(primary):
		return primary
	case retryable(hedge):
		return hedge
	}
	return primary
}

// once runs one attempt: a call on r, on the caller's goroutine, hedged on a
// second replica when r is slow. The hedge starts only when its trigger
// fires (a timer's function), so a call that answers in time starts no
// goroutine. The first success cancels the other call, and once returns only
// after both calls have returned — a backend abandons a cancelled call at
// once, and the caller reuses req's slices for its next scatter, so no call
// may outlive this one still reading them. When both fail, the errors are
// classified deterministically (stale, then retryable, then the primary's)
// so the caller's retry decision never depends on the race between the two
// failure paths.
func (rs *ReplicaSet) once(ctx context.Context, r *replica, req *Request) ([]int32, error) {
	d := rs.hedgeDelay()
	if d <= 0 || len(rs.reps) < 2 {
		return rs.call(ctx, r, req, false)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		hedged bool // a hedge call ran; hres and herr hold its outcome
		hres   []int32
		herr   error
		done   = make(chan struct{}) // closed once the trigger's function returns
	)
	trigger := time.AfterFunc(d, func() {
		defer close(done)
		if cctx.Err() != nil {
			return // the primary answered, or the query is gone
		}
		r2, ok := rs.pick(r)
		if !ok {
			return
		}
		rs.met.hedges.Add(1)
		hedged = true
		if hres, herr = rs.call(cctx, r2, req, true); herr == nil {
			cancel()
		}
	})
	res, err := rs.call(cctx, r, req, false)
	if err == nil {
		cancel()
	}
	if !trigger.Stop() {
		<-done // the trigger fired: join the hedge
	}
	switch {
	case err == nil:
		return res, nil
	case hedged && herr == nil:
		return hres, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	}
	return nil, classifyPair(err, herr)
}

// hedgeDelay resolves the hedging trigger: the configured HedgeAfter, or
// the set's observed p99 scatter latency once enough calls have been seen,
// read inside its histogram bucket — the bucket's upper bound would put the
// trigger at or past a spike that ends inside the bucket (5 ms spikes, a
// 5 ms trigger).
func (rs *ReplicaSet) hedgeDelay() time.Duration {
	if !rs.pol.Hedge {
		return 0
	}
	if rs.pol.HedgeAfter > 0 {
		return rs.pol.HedgeAfter
	}
	const minObservations = 20
	sl := rs.lat.Snapshot()
	if sl.Count < minObservations {
		return 0
	}
	d := time.Duration(sl.InterpolatedQuantile(0.99) * float64(time.Second))
	// A degenerate distribution — observations concentrated in the overflow
	// tail — resolves to the histogram's last bucket bound (seconds), a
	// trigger so late it silently disables hedging. The attempt timeout is
	// the natural ceiling: past it the primary call is cut loose anyway, so
	// a hedge that has not fired by then never will.
	if rs.pol.AttemptTimeout > 0 && d > rs.pol.AttemptTimeout {
		d = rs.pol.AttemptTimeout
	}
	return d
}

// errAttemptTimeout marks an attempt-timeout expiry. Deliberately NOT a
// context error: the query is alive, only this replica was too slow, so the
// failure must classify as retryable.
var errAttemptTimeout = errors.New("shard: replica attempt timed out")

// call runs exactly one scatter call on one replica, bounded by the
// attempt timeout, and feeds the outcome to the replica's breaker. A parent
// context expiry is returned as the context's error and the breaker
// abstains: it does not count against the replica. An attempt-timeout expiry
// does — that is the slow replica the timeout exists to cut loose.
//
// Each call is an "attempt" span under req.Span (the coordinator's per-shard
// span), recording the replica index, the breaker state at dispatch, and
// whether the call was a hedge — so a trace shows exactly which replica
// answered and why others were tried. A traced call hands the replica a copy
// of req that carries the attempt's span.
func (rs *ReplicaSet) call(ctx context.Context, r *replica, req *Request, hedged bool) ([]int32, error) {
	sp := req.Span.StartChild("attempt")
	if sp != nil {
		sp.SetInt("replica", int64(r.idx))
		sp.SetStr("breaker", r.br.snapshot().String())
		if hedged {
			sp.SetInt("hedged", 1)
		}
		defer sp.End()
		areq := *req
		areq.Span = sp
		req = &areq
	}
	actx := ctx
	if rs.pol.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rs.pol.AttemptTimeout)
		defer cancel()
	}
	t0 := time.Now()
	res, err := r.b.Partial(actx, req)
	if err == nil {
		r.br.onSuccess()
		rs.lat.Observe(time.Since(t0))
		return res, nil
	}
	if ctx.Err() != nil {
		// The query itself is dead (deadline, client disconnect, or the
		// hedge race was decided) — not the replica's fault. If the call
		// was the half-open probe, its turn passes to the next call.
		sp.SetStr("error", ctx.Err().Error())
		r.br.abstain()
		return nil, ctx.Err()
	}
	if actx.Err() != nil {
		// Only the attempt timeout expired: translate the context error into
		// a retryable replica failure before it masquerades as the query's
		// own deadline.
		err = fmt.Errorf("%w (%v)", errAttemptTimeout, rs.pol.AttemptTimeout)
	}
	sp.SetStr("error", err.Error())
	switch {
	case isStale(err):
		r.br.trip()
	case isRefusal(err):
		r.br.abstain() // the request's fault, not the replica's
	default:
		r.br.onFailure()
	}
	return nil, err
}

// StartHealthChecks begins background probing every interval: replicas that
// implement HealthChecker are asked what they serve, a mismatching
// fingerprint or row count quarantines the replica (breaker tripped open),
// a probe error counts as a failure, and a matching answer closes the
// breaker — the recovery path for a replica that caught up. No-op when
// interval <= 0 or already started; Close stops the loop.
func (rs *ReplicaSet) StartHealthChecks(interval time.Duration) {
	if interval <= 0 || !rs.healthStarted.CompareAndSwap(false, true) {
		return
	}
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-t.C:
				rs.probeAll(interval)
			}
		}
	}()
}

// minProbeTimeout floors the health-probe deadline. The probe is bounded by
// the check interval so loops cannot pile up, but an aggressive cadence must
// not shrink the deadline below what a loaded-yet-healthy replica needs to
// answer — a probe that times out counts as a failure, and misclassifying
// slow-but-correct replicas would flap their breakers under load.
const minProbeTimeout = 250 * time.Millisecond

// probeAll health-checks every replica once, bounding each probe by the
// check interval (but never less than minProbeTimeout).
func (rs *ReplicaSet) probeAll(timeout time.Duration) {
	if timeout < minProbeTimeout {
		timeout = minProbeTimeout
	}
	for _, r := range rs.reps {
		hc, ok := r.b.(HealthChecker)
		if !ok {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		hi, err := hc.Health(ctx)
		cancel()
		select {
		case <-rs.stop:
			return
		default:
		}
		switch {
		case err != nil:
			r.br.onFailure()
		case hi.Fingerprint != rs.fp || hi.Rows != rs.rows:
			// Divergent replica: quarantine it rather than let queries
			// discover the 409 one scatter call at a time.
			r.br.trip()
		default:
			// The replica serves exactly the expected bytes, so admit it —
			// even when its epoch counter trails the others'. A replication
			// follower that re-published identical data under an older epoch
			// number is catching up, not divergent; quarantining on epoch
			// alone would take half a replica group out on every rolling
			// no-op reload. onSuccess closes an open breaker unconditionally,
			// which is also the re-admission path: a follower quarantined
			// during a reload comes back the moment its fingerprint converges.
			r.br.onSuccess()
		}
	}
}

// Close stops the health-check loop. The set remains usable for queries —
// Close only retires the background goroutine (epoch swaps build a new set
// while in-flight queries finish on the old one).
func (rs *ReplicaSet) Close() {
	rs.stopOnce.Do(func() { close(rs.stop) })
	rs.wg.Wait()
}
