package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// fakeReplica is a scriptable Backend (and HealthChecker) for replica-set
// unit tests.
type fakeReplica struct {
	rows    int
	fp      uint64
	calls   atomic.Int64
	partial func(ctx context.Context, req *Request) ([]int32, error)

	healthFP    atomic.Uint64 // 0 = report fp (healthy)
	healthEpoch atomic.Uint64
	probes      atomic.Int64
}

func (f *fakeReplica) Rows() int           { return f.rows }
func (f *fakeReplica) Fingerprint() uint64 { return f.fp }

func (f *fakeReplica) Partial(ctx context.Context, req *Request) ([]int32, error) {
	f.calls.Add(1)
	return f.partial(ctx, req)
}

func (f *fakeReplica) Health(ctx context.Context) (HealthInfo, error) {
	f.probes.Add(1)
	fp := f.healthFP.Load()
	if fp == 0 {
		fp = f.fp
	}
	return HealthInfo{Rows: f.rows, Fingerprint: fp, Epoch: f.healthEpoch.Load()}, nil
}

func okReplica() *fakeReplica {
	return &fakeReplica{rows: 10, fp: 42, partial: func(ctx context.Context, req *Request) ([]int32, error) {
		return make([]int32, len(req.Cands)), nil
	}}
}

func failReplica(err error) *fakeReplica {
	return &fakeReplica{rows: 10, fp: 42, partial: func(ctx context.Context, req *Request) ([]int32, error) {
		return nil, err
	}}
}

func hangReplica() *fakeReplica {
	return &fakeReplica{rows: 10, fp: 42, partial: func(ctx context.Context, req *Request) ([]int32, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
}

// slowFailReplica fails with err after d (or the context's cancellation,
// whichever comes first) — the slow side of a hedge race.
func slowFailReplica(err error, d time.Duration) *fakeReplica {
	return &fakeReplica{rows: 10, fp: 42, partial: func(ctx context.Context, req *Request) ([]int32, error) {
		select {
		case <-time.After(d):
			return nil, err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
}

func testReq() *Request { return &Request{Mode: ModeScores, Cands: []*data.Object{{}}} }

// noHedge is a policy with hedging off and fast backoff, for deterministic
// retry tests.
func noHedge() Policy {
	return Policy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: 10 * time.Microsecond, Hedge: false}
}

func TestReplicaSetValidatesIdentity(t *testing.T) {
	a, b := okReplica(), okReplica()
	b.fp = 43
	if _, err := NewReplicaSet(0, []Backend{a, b}, noHedge(), nil); err == nil {
		t.Fatal("mismatched fingerprints accepted")
	}
	b.fp = 42
	b.rows = 11
	if _, err := NewReplicaSet(0, []Backend{a, b}, noHedge(), nil); err == nil {
		t.Fatal("mismatched row counts accepted")
	}
	if _, err := NewReplicaSet(0, nil, noHedge(), nil); err == nil {
		t.Fatal("empty replica set accepted")
	}
}

func TestReplicaSetLoadBalances(t *testing.T) {
	a, b := okReplica(), okReplica()
	rs, err := NewReplicaSet(0, []Backend{a, b}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatal(err)
		}
	}
	if a.calls.Load() == 0 || b.calls.Load() == 0 {
		t.Fatalf("round-robin left a replica idle: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}
}

func TestReplicaSetRetriesTransportErrors(t *testing.T) {
	bad := failReplica(fmt.Errorf("connection refused"))
	good := okReplica()
	met := NewMetrics(1)
	rs, err := NewReplicaSet(0, []Backend{bad, good}, noHedge(), met)
	if err != nil {
		t.Fatal(err)
	}
	// Every call must succeed: a bad pick retries onto the good replica.
	for i := 0; i < 10; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if good.calls.Load() == 0 {
		t.Fatal("good replica never called")
	}
	if bad.calls.Load() > 0 && met.Snapshot().Retries == 0 {
		t.Fatal("failures retried but the retry counter stayed zero")
	}
}

func TestReplicaSet5xxRetriedBut4xxNot(t *testing.T) {
	srv5xx := failReplica(&PeerError{URL: "x", Status: 500, Msg: "boom"})
	good := okReplica()
	rs, err := NewReplicaSet(0, []Backend{srv5xx, good}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("5xx should fail over: %v", err)
		}
	}

	bad4xx := failReplica(&PeerError{URL: "x", Status: 400, Msg: "bad request"})
	rs2, err := NewReplicaSet(0, []Backend{bad4xx, okReplica()}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin may land on the healthy replica first; probe until the
	// bad one is picked. Once it is, its 400 must propagate immediately —
	// another replica would refuse the same request identically.
	saw4xx := false
	for i := 0; i < 8; i++ {
		_, err := rs2.Partial(context.Background(), testReq())
		if err != nil {
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Status != 400 {
				t.Fatalf("want the 400 PeerError, got %v", err)
			}
			saw4xx = true
			break
		}
	}
	if !saw4xx {
		t.Fatal("the 4xx replica's error never propagated")
	}
	if bad4xx.calls.Load() > 1 {
		t.Fatalf("4xx was retried: %d calls", bad4xx.calls.Load())
	}
}

// TestReplicaSet4xxLeavesBreakersClosed: a 400 is the coordinator's own bad
// request, which every replica refuses alike, so it is
// no evidence against a replica. Five in a row — more than the threshold on
// each of the two replicas — leave every breaker closed, and the next valid
// request is answered at once, not after the hour-long cooldown.
func TestReplicaSet4xxLeavesBreakersClosed(t *testing.T) {
	var refuse atomic.Bool
	refuse.Store(true)
	replica := func() *fakeReplica {
		return &fakeReplica{rows: 10, fp: 42, partial: func(ctx context.Context, req *Request) ([]int32, error) {
			if refuse.Load() {
				return nil, &PeerError{URL: "x", Status: 400, Msg: `shard: algorithm "Naive" is not served`}
			}
			return make([]int32, len(req.Cands)), nil
		}}
	}
	pol := noHedge()
	pol.BreakerThreshold = 2
	pol.BreakerCooldown = time.Hour
	rs, err := NewReplicaSet(0, []Backend{replica(), replica()}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var pe *PeerError
		if _, err := rs.Partial(context.Background(), testReq()); !errors.As(err, &pe) || pe.Status != 400 {
			t.Fatalf("refusal %d: want the 400 PeerError, got %v", i, err)
		}
	}
	for i, st := range rs.States() {
		if st != BreakerClosed {
			t.Fatalf("after five 400s replica %d's breaker is %v, want closed", i, st)
		}
	}
	refuse.Store(false)
	if _, err := rs.Partial(context.Background(), testReq()); err != nil {
		t.Fatalf("valid request after the refusals: %v", err)
	}
}

// TestReplicaSet404OpensThatReplicasBreaker: a 404 "unknown dataset" comes
// from one replica that evicted the dataset or has not loaded it, not from
// the request, so it counts against that replica: once the threshold's worth
// of queries have failed on it, its breaker opens and every later query is
// answered by the replica that holds the dataset.
func TestReplicaSet404OpensThatReplicasBreaker(t *testing.T) {
	evicted := failReplica(&PeerError{URL: "x", Status: 404, Msg: `unknown dataset "d"`})
	pol := noHedge()
	pol.BreakerThreshold = 2
	pol.BreakerCooldown = time.Hour
	rs, err := NewReplicaSet(0, []Backend{evicted, okReplica()}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 10; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			failed++
		}
	}
	if failed != pol.BreakerThreshold {
		t.Fatalf("%d of 10 queries failed, want %d (the threshold, then the breaker opens)", failed, pol.BreakerThreshold)
	}
	if st := rs.States(); st[0] != BreakerOpen || st[1] != BreakerClosed {
		t.Fatalf("breakers %v, want [open closed]", st)
	}
	for i := 0; i < 5; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("query %d after the breaker opened: %v", i, err)
		}
	}
}

// TestPeerShortCopyIsStale: a peer whose copy holds fewer rows than the
// coordinator's range — a follower behind on appends — answers 409, as a
// fingerprint mismatch does, not a 400 that reads as the request's fault.
// The replica set quarantines it and answers from the replica that holds
// the rows.
func TestPeerShortCopyIsStale(t *testing.T) {
	ds := testDataset(200)
	short := ds.Slice(0, 150)
	serve := func(of *data.Dataset) *httptest.Server {
		mux := http.NewServeMux()
		mux.Handle("POST /v1/shard/query", NewPeer(func(string) (*data.Dataset, uint64, bool) { return of, 1, true }))
		return httptest.NewServer(mux)
	}
	behind, full := serve(short), serve(ds)
	defer behind.Close()
	defer full.Close()
	lo, hi := 100, 200
	fp := ds.Slice(lo, hi).Fingerprint()
	req := &Request{Mode: ModeScores, Cands: []*data.Object{ds.Obj(0)}}
	var pe *PeerError
	if _, err := NewRemote(nil, behind.URL, "d", lo, hi, fp).Partial(context.Background(), req); !errors.As(err, &pe) || pe.Status != statusConflict {
		t.Fatalf("range past the peer's rows: want a 409 PeerError, got %v", err)
	}
	pol := noHedge()
	pol.BreakerCooldown = time.Hour
	rs, err := NewReplicaSet(0, []Backend{NewRemote(nil, behind.URL, "d", lo, hi, fp), NewRemote(nil, full.URL, "d", lo, hi, fp)}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rs.Partial(context.Background(), req); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := rs.States(); st[0] != BreakerOpen || st[1] != BreakerClosed {
		t.Fatalf("breakers %v, want [open closed]", st)
	}
}

func TestReplicaSetStaleNeverRetriedOnSameReplica(t *testing.T) {
	stale := failReplica(&PeerError{URL: "x", Status: statusConflict, Msg: "fingerprint mismatch"})
	good := okReplica()
	rs, err := NewReplicaSet(0, []Backend{stale, good}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("call %d: stale replica should fail over: %v", i, err)
		}
	}
	// The 409 trips the breaker on first contact: one call, never again.
	if n := stale.calls.Load(); n > 1 {
		t.Fatalf("stale replica called %d times, want at most 1 (quarantined)", n)
	}
	states := rs.States()
	if stale.calls.Load() == 1 && states[0] != BreakerOpen {
		t.Fatalf("stale replica breaker %v, want open", states[0])
	}
}

func TestReplicaSetSingleStaleReplicaFailsClosed(t *testing.T) {
	stale := failReplica(&PeerError{URL: "x", Status: statusConflict, Msg: "fingerprint mismatch"})
	rs, err := NewReplicaSet(3, []Backend{stale}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Partial(context.Background(), testReq())
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("want *Unavailable, got %v", err)
	}
	if u.Shard != 3 {
		t.Fatalf("Unavailable.Shard = %d, want 3", u.Shard)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Status != statusConflict {
		t.Fatalf("Unavailable should wrap the 409, got %v", err)
	}
	if n := stale.calls.Load(); n != 1 {
		t.Fatalf("stale replica called %d times, want exactly 1", n)
	}
}

func TestReplicaSetUnavailableWhenAllBreakersOpen(t *testing.T) {
	err1 := failReplica(fmt.Errorf("down"))
	err2 := failReplica(fmt.Errorf("down"))
	pol := noHedge()
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = time.Hour
	rs, err := NewReplicaSet(0, []Backend{err1, err2}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	// First call burns through the attempt budget and opens both breakers.
	if _, err := rs.Partial(context.Background(), testReq()); err == nil {
		t.Fatal("all-failing set returned success")
	}
	before1, before2 := err1.calls.Load(), err2.calls.Load()
	_, err = rs.Partial(context.Background(), testReq())
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("want *Unavailable, got %v", err)
	}
	if err1.calls.Load() != before1 || err2.calls.Load() != before2 {
		t.Fatal("open breakers still admitted calls")
	}
}

func TestReplicaSetAttemptTimeoutIsRetryable(t *testing.T) {
	slow := hangReplica()
	good := okReplica()
	pol := noHedge()
	pol.AttemptTimeout = 10 * time.Millisecond
	pol.MaxAttempts = 4
	rs, err := NewReplicaSet(0, []Backend{slow, good}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The hanging replica's attempt expires; the retry must land on the
	// good replica and succeed — an attempt timeout is a replica failure,
	// never the query's deadline.
	for i := 0; i < 4; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if good.calls.Load() == 0 {
		t.Fatal("good replica never called")
	}
}

func TestReplicaSetParentCancellationPropagates(t *testing.T) {
	slow := hangReplica()
	rs, err := NewReplicaSet(0, []Backend{slow}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := rs.Partial(ctx, testReq())
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not release the in-flight call")
	}
	// Cancellation is the query's choice, not the replica's fault: the
	// breaker must stay closed.
	if st := rs.States()[0]; st != BreakerClosed {
		t.Fatalf("breaker %v after parent cancellation, want closed", st)
	}
}

func TestReplicaSetHedgeRacesSecondReplica(t *testing.T) {
	// reps[1] hangs; reps[0] answers fast. Whichever is picked as primary,
	// the call must come back fast — if the primary is the hanging one, the
	// hedge fires after HedgeAfter and wins the race.
	fast := okReplica()
	slow := hangReplica()
	met := NewMetrics(1)
	pol := Policy{MaxAttempts: 2, Hedge: true, HedgeAfter: 5 * time.Millisecond}
	rs, err := NewReplicaSet(0, []Backend{fast, slow}, pol, met)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		start := time.Now()
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("call %d took %v despite hedging", i, d)
		}
	}
	if met.Snapshot().Hedges == 0 {
		t.Fatal("the hanging primary was never hedged")
	}
}

// TestReplicaSetHedgeStragglerJoined runs multi-window queries with every
// scatter call hedged onto a second in-process replica. The coordinator
// reuses its request buffers from one scatter to the next, so a hedge loser
// still reading them after the winner returned is a data race — which the
// race detector reports here if once stops joining its stragglers.
func TestReplicaSetHedgeStragglerJoined(t *testing.T) {
	ds := testDataset(2000)
	const n = 2
	pol := Policy{MaxAttempts: 2, Hedge: true, HedgeAfter: time.Nanosecond}
	backends := make([]Backend, n)
	for i := range backends {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		rs, err := NewReplicaSet(i, []Backend{NewLocal(ds, lo, hi), NewLocal(ds, lo, hi)}, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	pre := core.Preprocess(ds, nil)
	c := NewCoordinator(core.NewPrepared(ds, nil), nil)
	for _, k := range []int{3, 20} {
		want, _ := core.Run(core.AlgIBIG, ds, k, pre)
		got, st, err := c.Run(context.Background(), k, backends, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		assertEqual(t, fmt.Sprintf("k=%d", k), want, got)
		if st.Windows < 3 {
			t.Fatalf("k=%d: %d windows — no buffer was reused", k, st.Windows)
		}
	}
}

func TestReplicaSetHealthCheckQuarantineAndRecovery(t *testing.T) {
	a, b := okReplica(), okReplica()
	pol := noHedge()
	pol.BreakerCooldown = time.Hour // only the probes may reopen/close
	rs, err := NewReplicaSet(0, []Backend{a, b}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	b.healthFP.Store(99) // b diverges
	rs.StartHealthChecks(2 * time.Millisecond)
	waitFor(t, "replica b quarantined", func() bool { return rs.States()[1] == BreakerOpen })
	if rs.States()[0] != BreakerClosed {
		t.Fatalf("healthy replica breaker %v, want closed", rs.States()[0])
	}
	// Queries keep succeeding on the healthy replica the whole time.
	for i := 0; i < 5; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("query during quarantine: %v", err)
		}
	}
	// b catches up: the next probe closes its breaker.
	b.healthFP.Store(0)
	waitFor(t, "replica b recovered", func() bool { return rs.States()[1] == BreakerClosed })
}

func TestReplicaSetCloseStopsHealthLoop(t *testing.T) {
	a := okReplica()
	rs, err := NewReplicaSet(0, []Backend{a}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rs.StartHealthChecks(time.Millisecond)
	waitFor(t, "first probe", func() bool { return a.probes.Load() > 0 })
	rs.Close()
	n := a.probes.Load()
	time.Sleep(20 * time.Millisecond)
	if a.probes.Load() != n {
		t.Fatal("health loop kept probing after Close")
	}
	// Close is idempotent and the set still serves queries.
	rs.Close()
	if _, err := rs.Partial(context.Background(), testReq()); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}

func TestReplicaSetPickCounterWrap(t *testing.T) {
	rs, err := NewReplicaSet(0, []Backend{okReplica(), okReplica(), okReplica()}, noHedge(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the round-robin counter at the int boundary: the next Add(1)
	// crosses into territory where a plain int() conversion goes negative,
	// which used to make (start+i)%n a negative index and panic pick.
	rs.next.Store(math.MaxInt64)
	for i := 0; i < 10; i++ {
		r, ok := rs.pick(nil)
		if !ok || r == nil {
			t.Fatalf("pick %d failed with all breakers closed", i)
		}
	}
	rs.next.Store(math.MaxUint64 - 2) // and across the uint64 wrap itself
	for i := 0; i < 10; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("call %d across counter wrap: %v", i, err)
		}
	}
}

func TestReplicaSetHedgeErrorAttributionDeterministic(t *testing.T) {
	stale := &PeerError{URL: "x", Status: statusConflict, Msg: "fingerprint mismatch"}
	badReq := &PeerError{URL: "x", Status: 400, Msg: "bad request"}
	// Whichever side of the race carries the 409 and whichever call lands
	// first, the stale error must win attribution: it is the one that tells
	// Partial to quarantine-and-switch instead of failing the query fast.
	cases := []struct {
		name           string
		primary, hedge error
	}{
		{"fast hedge carries the 409", badReq, stale},
		{"slow primary carries the 409", stale, badReq},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			primary := slowFailReplica(tc.primary, 30*time.Millisecond)
			hedge := failReplica(tc.hedge)
			pol := Policy{MaxAttempts: 1, Hedge: true, HedgeAfter: 2 * time.Millisecond}
			rs, err := NewReplicaSet(0, []Backend{primary, hedge}, pol, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = rs.once(context.Background(), rs.reps[0], testReq())
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Status != statusConflict {
				t.Fatalf("lost hedge race returned %v, want the 409", err)
			}
			if hedge.calls.Load() == 0 {
				t.Fatal("hedge never fired; the race was not exercised")
			}
		})
	}
}

func TestReplicaSetHedgeDelayClampsDegenerateP99(t *testing.T) {
	pol := Policy{MaxAttempts: 2, Hedge: true, AttemptTimeout: 20 * time.Millisecond}
	rs, err := NewReplicaSet(0, []Backend{okReplica(), okReplica()}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Concentrate every observation in the histogram's overflow tail: the
	// p99 resolves to the last bucket bound (seconds), a hedge trigger so
	// late it would never fire within the attempt timeout.
	for i := 0; i < 25; i++ {
		rs.lat.Observe(10 * time.Second)
	}
	if d := rs.hedgeDelay(); d != pol.AttemptTimeout {
		t.Fatalf("hedgeDelay = %v with a degenerate p99, want the %v attempt timeout", d, pol.AttemptTimeout)
	}
}

func TestReplicaSetHealthProbeTracksEpochs(t *testing.T) {
	a, b := okReplica(), okReplica()
	a.healthEpoch.Store(7)
	b.healthEpoch.Store(5) // same fingerprint, older epoch: a follower catching up
	pol := noHedge()
	pol.BreakerCooldown = time.Hour // only the probes may change breaker state
	rs, err := NewReplicaSet(0, []Backend{a, b}, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.StartHealthChecks(2 * time.Millisecond)
	waitFor(t, "replica epochs recorded", func() bool {
		es := rs.ReplicaEpochs()
		return es[0] == 7 && es[1] == 5
	})
	// A stale epoch with a matching fingerprint is lag, not divergence: both
	// replicas must keep serving.
	if st := rs.States(); st[0] != BreakerClosed || st[1] != BreakerClosed {
		t.Fatalf("breakers %v with matching fingerprints, want both closed", st)
	}
	for i := 0; i < 5; i++ {
		if _, err := rs.Partial(context.Background(), testReq()); err != nil {
			t.Fatalf("query with a lagging replica: %v", err)
		}
	}
	// The lagging replica converges; the probe reflects it.
	b.healthEpoch.Store(7)
	waitFor(t, "replica b epoch converged", func() bool { return rs.ReplicaEpochs()[1] == 7 })
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
