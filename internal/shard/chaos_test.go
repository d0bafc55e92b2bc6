package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// chaosPolicy is a fast retry policy for the fault-injection tests: quick
// backoff, an attempt timeout short enough to cut injected hangs loose, no
// hedging (the hedge race makes call ordering nondeterministic, which is
// fine in production and noise in an exactness test).
func chaosPolicy() Policy {
	return Policy{
		MaxAttempts:      4,
		BaseBackoff:      100 * time.Microsecond,
		MaxBackoff:       time.Millisecond,
		AttemptTimeout:   25 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Millisecond,
	}
}

// chaosMix is the fault schedule used by the exactness tests: every fault
// kind enabled, rates high enough that a few hundred scatter calls hit all
// of them.
func chaosMix(seed uint64) ChaosConfig {
	return ChaosConfig{
		Seed:     seed,
		ErrorP:   0.10,
		TimeoutP: 0.02,
		StaleP:   0.05,
		LatencyP: 0.10,
		Latency:  time.Millisecond,
	}
}

// replicatedChaosBackends builds n shards, each a two-replica set over the
// same row range: one clean Local and one Local behind fault injection.
// Every fault schedule therefore has a correct replica to fail over to —
// the non-Byzantine regime in which answers must stay byte-identical.
func replicatedChaosBackends(t *testing.T, ds *data.Dataset, n int, chaos *Chaos, pol Policy, met *Metrics) []Backend {
	t.Helper()
	out := make([]Backend, n)
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		reps := []Backend{NewLocal(ds, lo, hi), NewChaosBackend(NewLocal(ds, lo, hi), chaos)}
		rs, err := NewReplicaSet(i, reps, pol, met)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rs
	}
	return out
}

// TestChaosReplicaExactness is the core robustness claim under a seed
// matrix: with injected transport errors, hangs, stale 409s and latency
// spikes on one replica of every shard, every algorithm's answer stays
// byte-identical to the serial one.
func TestChaosReplicaExactness(t *testing.T) {
	ds := testDataset(400)
	pre := core.Preprocess(ds, nil)
	for _, seed := range []uint64{1, 2, 3} {
		chaos := NewChaos(chaosMix(seed))
		met := NewMetrics(3)
		backends := replicatedChaosBackends(t, ds, 3, chaos, chaosPolicy(), met)
		c := NewCoordinator(core.NewPrepared(ds, nil), met)
		for _, alg := range core.Algorithms {
			for _, k := range []int{1, 7} {
				want, _ := core.Run(alg, ds, k, pre)
				got, _, err := c.Run(context.Background(), k, backends, RunOptions{})
				if err != nil {
					t.Fatalf("seed=%d %v k=%d: %v", seed, alg, k, err)
				}
				assertEqual(t, fmt.Sprintf("seed=%d %v k=%d", seed, alg, k), want, got)
			}
		}
		counts := chaos.Counts()
		if counts.Errors+counts.Timeouts+counts.Stales+counts.Latencies == 0 {
			t.Fatalf("seed=%d: the schedule injected nothing — the test is vacuous", seed)
		}
	}
}

// downBackend is a Backend whose every scatter call fails — a crashed
// replica.
type downBackend struct{ Backend }

func (d downBackend) Partial(ctx context.Context, req *Request) ([]int32, error) {
	return nil, fmt.Errorf("chaos: replica down")
}

// TestChaosRunFailClosedAndDegraded pins the degradation contract: a shard
// with no usable replica fails the query with the typed *Unavailable by
// default, and under AllowPartial yields an answer that is exactly the
// top-k over the live row-ranges, with the coverage reported.
func TestChaosRunFailClosedAndDegraded(t *testing.T) {
	ds := testDataset(240)
	const n, k = 3, 5
	pol := chaosPolicy()
	pol.BreakerThreshold = 1
	pol.BreakerCooldown = time.Hour
	backends := make([]Backend, n)
	var liveSlices []*data.Dataset
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		reps := []Backend{NewLocal(ds, lo, hi), NewLocal(ds, lo, hi)}
		if i == 1 {
			reps = []Backend{downBackend{NewLocal(ds, lo, hi)}, downBackend{NewLocal(ds, lo, hi)}}
		} else {
			liveSlices = append(liveSlices, ds.Slice(lo, hi))
		}
		rs, err := NewReplicaSet(i, reps, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	c := NewCoordinator(core.NewPrepared(ds, nil), NewMetrics(n))

	// Default: fail closed with the typed error naming the shard.
	_, _, err := c.Run(context.Background(), k, backends, RunOptions{})
	var u *Unavailable
	if !errors.As(err, &u) {
		t.Fatalf("want *Unavailable, got %v", err)
	}
	if u.Shard != 1 {
		t.Fatalf("Unavailable.Shard = %d, want 1", u.Shard)
	}

	// AllowPartial: exact over the live rows, coverage reported.
	var out Outcome
	got, _, err := c.Run(context.Background(), k, backends, RunOptions{AllowPartial: true, Outcome: &out})
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if !out.Degraded {
		t.Fatal("outcome not marked degraded")
	}
	if len(out.DownShards) != 1 || out.DownShards[0] != 1 {
		t.Fatalf("DownShards = %v, want [1]", out.DownShards)
	}
	liveRows := 0
	for _, s := range liveSlices {
		liveRows += s.Len()
	}
	if out.CoveredRows != liveRows || out.TotalRows != ds.Len() {
		t.Fatalf("coverage %d/%d, want %d/%d", out.CoveredRows, out.TotalRows, liveRows, ds.Len())
	}

	// Brute-force ground truth over the live slices only: every object's
	// degraded score, ranked in the answer order.
	scores := make([]int, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		for _, s := range liveSlices {
			scores[i] += core.ForeignScore(s, ds.Obj(i))
		}
	}
	if want := bruteTopK(ds, scores, k); !slices.Equal(got.Items, want) {
		t.Fatalf("degraded answer %v, brute force over live rows %v", got.Items, want)
	}
}

// bruteTopK ranks every object of ds by scores in the answer order — score,
// then the full data's MaxScore bound, then index — and returns the first k.
func bruteTopK(ds *data.Dataset, scores []int, k int) []core.Item {
	bound := core.BuildMaxScoreQueue(ds).MaxScore
	items := make([]core.Item, ds.Len())
	for i := range items {
		items[i] = core.Item{Index: i, ID: ds.Obj(i).ID, Score: scores[i]}
	}
	sort.Slice(items, func(i, j int) bool {
		a, b := items[i], items[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if bound[a.Index] != bound[b.Index] {
			return bound[a.Index] > bound[b.Index]
		}
		return a.Index < b.Index
	})
	return items[:min(k, len(items))]
}

// budgetAuditor holds every Pruned answer of the backend it wraps to the
// budget's promise: the candidate's total score over the rows the query
// covers is below the τ the request was cut against.
type budgetAuditor struct {
	Backend
	t      *testing.T
	truth  map[*data.Object]int
	pruned *atomic.Int64
}

func (a budgetAuditor) Partial(ctx context.Context, req *Request) ([]int32, error) {
	res, err := a.Backend.Partial(ctx, req)
	for i, v := range res {
		if req.Mode == ModeScores && v == Pruned {
			a.pruned.Add(1)
			if total := a.truth[req.Cands[i]]; total >= req.Tau {
				a.t.Errorf("candidate %q pruned on budget %d at τ=%d, but scores %d over the live rows", req.Cands[i].ID, req.Budgets[i], req.Tau, total)
			}
		}
	}
	return res, err
}

// TestChaosDegradedBudgetsSound is the degraded pass at a size where the
// pruning phases run: with one shard down under AllowPartial the bound sums
// — and so the exact-phase budgets — cover the live shards only. Every
// budget prune is audited against the brute-force score over the live rows,
// and every answer must be the brute-force top-k over them.
func TestChaosDegradedBudgetsSound(t *testing.T) {
	ds := testDataset(3000)
	const n = 3
	backends := coarseBackends(ds, n, 12) // of 15 values: rows to walk, budgets to stop on
	truth := make(map[*data.Object]int, ds.Len())
	scores := make([]int, ds.Len())
	for i := range scores {
		for s, b := range backends {
			if s != 1 {
				scores[i] += core.ForeignScore(b.(*Local).Dataset(), ds.Obj(i))
			}
		}
		truth[ds.Obj(i)] = scores[i]
	}
	var pruned atomic.Int64
	for s, b := range backends {
		backends[s] = budgetAuditor{Backend: b, t: t, truth: truth, pruned: &pruned}
	}
	down, err := NewReplicaSet(1, []Backend{downBackend{backends[1]}}, chaosPolicy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	backends[1] = down

	c := NewCoordinator(core.NewPrepared(ds, nil), nil)
	alg := core.AlgIBIG
	for _, k := range []int{1, 3, 7, 16, 40, 100} {
		var out Outcome
		got, _, err := c.Run(context.Background(), k, backends, RunOptions{AllowPartial: true, Outcome: &out})
		if err != nil {
			t.Fatalf("%v k=%d: %v", alg, k, err)
		}
		if !out.Degraded {
			t.Fatalf("%v k=%d: answer not marked degraded", alg, k)
		}
		if want := bruteTopK(ds, scores, k); !slices.Equal(got.Items, want) {
			t.Fatalf("%v k=%d: degraded answer %v, brute force over live rows %v", alg, k, got.Items, want)
		}
	}
	if pruned.Load() == 0 {
		t.Fatal("no degraded run pruned on a budget — the test is vacuous")
	}
}

// TestChaosCancellationReleasesScatter hangs every scatter call (TimeoutP=1)
// and checks that a query deadline both surfaces promptly and releases the
// in-flight goroutines — no leak accumulates across repeated doomed queries.
func TestChaosCancellationReleasesScatter(t *testing.T) {
	ds := testDataset(200)
	chaos := NewChaos(ChaosConfig{Seed: 1, TimeoutP: 1})
	pol := chaosPolicy()
	pol.AttemptTimeout = 0 // nothing cuts the hang loose but the query deadline
	var backends []Backend
	for i := 0; i < 2; i++ {
		rs, err := NewReplicaSet(i, []Backend{
			NewChaosBackend(NewLocal(ds, i*100, (i+1)*100), chaos),
			NewChaosBackend(NewLocal(ds, i*100, (i+1)*100), chaos),
		}, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, rs)
	}
	c := NewCoordinator(core.NewPrepared(ds, nil), NewMetrics(2))

	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, _, err := c.Run(ctx, 3, backends, RunOptions{})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: want DeadlineExceeded, got %v", i, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("run %d: deadline took %v to surface", i, d)
		}
	}
	waitFor(t, "scatter goroutines to drain", func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= base+3
	})
}

// stopwatch keeps the longest Partial of the backend it wraps.
type stopwatch struct {
	Backend
	slowest *atomic.Int64 // nanoseconds
}

func (s stopwatch) Partial(ctx context.Context, req *Request) ([]int32, error) {
	t0 := time.Now()
	res, err := s.Backend.Partial(ctx, req)
	for d := int64(time.Since(t0)); ; {
		if old := s.slowest.Load(); d <= old || s.slowest.CompareAndSwap(old, d) {
			return res, err
		}
	}
}

// TestChaosTransportRemoteExactness runs the coordinator against real HTTP
// peers where one replica of each shard is reached through a fault-injecting
// RoundTripper — the full wire path under chaos — and checks answers stay
// byte-identical. A healthy round trip crosses the client's, the transport's
// and the peer's goroutines, and on a host whose cores are taken each hop can
// wait out somebody's time slice, so no constant is a safe attempt timeout:
// the same queries run first with no fault injected and an attempt gets twenty
// times the slowest round trip seen there. An injected hang still ends on the
// attempt timeout and nothing else.
func TestChaosTransportRemoteExactness(t *testing.T) {
	ds := testDataset(300)
	resolve := func(name string) (*data.Dataset, uint64, bool) {
		if name != "d" {
			return nil, 0, false
		}
		return ds, 1, true
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/shard/query", NewPeer(resolve))
	peer := httptest.NewServer(mux)
	defer peer.Close()

	chaos := NewChaos(chaosMix(7))
	chaosClient := &http.Client{Transport: NewChaosTransport(nil, chaos), Timeout: 5 * time.Second}
	const n = 2
	clean, backends := make([]Backend, n), make([]Backend, n)
	var slowest atomic.Int64
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		clean[i] = stopwatch{NewRemote(nil, peer.URL, "d", lo, hi, ds.Slice(lo, hi).Fingerprint()), &slowest}
	}
	pre := core.Preprocess(ds, nil)
	c := NewCoordinator(core.NewPrepared(ds, nil), NewMetrics(n))
	if _, _, err := c.Run(context.Background(), 6, clean, RunOptions{}); err != nil {
		t.Fatalf("no fault injected: %v", err)
	}
	pol := chaosPolicy()
	pol.AttemptTimeout = max(pol.AttemptTimeout, 20*time.Duration(slowest.Load()))
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		rs, err := NewReplicaSet(i, []Backend{
			clean[i],
			NewRemote(chaosClient, peer.URL, "d", lo, hi, clean[i].Fingerprint()),
		}, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	want, _ := core.Run(core.AlgIBIG, ds, 6, pre)
	got, _, err := c.Run(context.Background(), 6, backends, RunOptions{})
	if err != nil {
		t.Fatalf("attempt timeout %v: %v", pol.AttemptTimeout, err)
	}
	assertEqual(t, "IBIG", want, got)
	counts := chaos.Counts()
	if counts.Errors+counts.Timeouts+counts.Stales+counts.Latencies == 0 {
		t.Fatal("the transport injected nothing — the test is vacuous")
	}
}
