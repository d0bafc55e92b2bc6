package shard_test

// The tests that scatter through the seeded fault injector. They live in the
// external test package because shardtest imports shard.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/shard"
	"repro/internal/shard/shardtest"
)

// chaosMix is the fault schedule used by the exactness tests: every fault
// kind enabled, rates high enough that a few hundred scatter calls hit all
// of them.
func chaosMix(seed uint64) shardtest.ChaosConfig {
	return shardtest.ChaosConfig{
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
func replicatedChaosBackends(t *testing.T, ds *data.Dataset, n int, chaos *shardtest.Chaos, pol shard.Policy, met *shard.Metrics) []shard.Backend {
	t.Helper()
	out := make([]shard.Backend, n)
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		reps := []shard.Backend{shard.NewLocal(ds, lo, hi), shardtest.NewChaosBackend(shard.NewLocal(ds, lo, hi), chaos)}
		rs, err := shard.NewReplicaSet(i, reps, pol, met)
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
	ds := shard.TestingDataset(400)
	pre := core.Preprocess(ds, nil)
	for _, seed := range []uint64{1, 2, 3} {
		chaos := shardtest.NewChaos(chaosMix(seed))
		met := shard.NewMetrics(3)
		backends := replicatedChaosBackends(t, ds, 3, chaos, shard.ChaosPolicy(), met)
		c := shard.NewCoordinator(core.NewPrepared(ds, nil), met)
		for _, alg := range core.Algorithms {
			for _, k := range []int{1, 7} {
				want, _ := core.Run(alg, ds, k, pre)
				got, _, err := c.Run(context.Background(), k, backends, shard.RunOptions{})
				if err != nil {
					t.Fatalf("seed=%d %v k=%d: %v", seed, alg, k, err)
				}
				shard.AssertEqual(t, fmt.Sprintf("seed=%d %v k=%d", seed, alg, k), want, got)
			}
		}
		counts := chaos.Counts()
		if counts.Errors+counts.Timeouts+counts.Stales+counts.Latencies == 0 {
			t.Fatalf("seed=%d: the schedule injected nothing — the test is vacuous", seed)
		}
	}
}

// TestChaosCancellationReleasesScatter hangs every scatter call (TimeoutP=1)
// and checks that a query deadline both surfaces promptly and releases the
// in-flight goroutines — no leak accumulates across repeated doomed queries.
func TestChaosCancellationReleasesScatter(t *testing.T) {
	ds := shard.TestingDataset(200)
	chaos := shardtest.NewChaos(shardtest.ChaosConfig{Seed: 1, TimeoutP: 1})
	pol := shard.ChaosPolicy()
	pol.AttemptTimeout = 0 // nothing cuts the hang loose but the query deadline
	var backends []shard.Backend
	for i := 0; i < 2; i++ {
		rs, err := shard.NewReplicaSet(i, []shard.Backend{
			shardtest.NewChaosBackend(shard.NewLocal(ds, i*100, (i+1)*100), chaos),
			shardtest.NewChaosBackend(shard.NewLocal(ds, i*100, (i+1)*100), chaos),
		}, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, rs)
	}
	c := shard.NewCoordinator(core.NewPrepared(ds, nil), shard.NewMetrics(2))

	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, _, err := c.Run(ctx, 3, backends, shard.RunOptions{})
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: want DeadlineExceeded, got %v", i, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("run %d: deadline took %v to surface", i, d)
		}
	}
	shard.WaitFor(t, "scatter goroutines to drain", func() bool {
		runtime.Gosched()
		return runtime.NumGoroutine() <= base+3
	})
}

// stopwatch keeps the longest Partial of the backend it wraps.
type stopwatch struct {
	shard.Backend
	slowest *atomic.Int64 // nanoseconds
}

func (s stopwatch) Partial(ctx context.Context, req *shard.Request) ([]int32, error) {
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
	ds := shard.TestingDataset(300)
	resolve := func(name string) (*data.Dataset, uint64, bool) {
		if name != "d" {
			return nil, 0, false
		}
		return ds, 1, true
	}
	mux := http.NewServeMux()
	mux.Handle("POST /v1/shard/query", shard.NewPeer(resolve))
	peer := httptest.NewServer(mux)
	defer peer.Close()

	chaos := shardtest.NewChaos(chaosMix(7))
	chaosClient := &http.Client{Transport: shardtest.NewChaosTransport(nil, chaos), Timeout: 5 * time.Second}
	const n = 2
	clean, backends := make([]shard.Backend, n), make([]shard.Backend, n)
	var slowest atomic.Int64
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		clean[i] = stopwatch{shard.NewRemote(nil, peer.URL, "d", lo, hi, ds.Slice(lo, hi).Fingerprint()), &slowest}
	}
	pre := core.Preprocess(ds, nil)
	c := shard.NewCoordinator(core.NewPrepared(ds, nil), shard.NewMetrics(n))
	if _, _, err := c.Run(context.Background(), 6, clean, shard.RunOptions{}); err != nil {
		t.Fatalf("no fault injected: %v", err)
	}
	pol := shard.ChaosPolicy()
	pol.AttemptTimeout = max(pol.AttemptTimeout, 20*time.Duration(slowest.Load()))
	for i := 0; i < n; i++ {
		lo, hi := i*ds.Len()/n, (i+1)*ds.Len()/n
		rs, err := shard.NewReplicaSet(i, []shard.Backend{
			clean[i],
			shard.NewRemote(chaosClient, peer.URL, "d", lo, hi, clean[i].Fingerprint()),
		}, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = rs
	}
	want, _ := core.Run(core.AlgIBIG, ds, 6, pre)
	got, _, err := c.Run(context.Background(), 6, backends, shard.RunOptions{})
	if err != nil {
		t.Fatalf("attempt timeout %v: %v", pol.AttemptTimeout, err)
	}
	shard.AssertEqual(t, "IBIG", want, got)
	counts := chaos.Counts()
	if counts.Errors+counts.Timeouts+counts.Stales+counts.Latencies == 0 {
		t.Fatal("the transport injected nothing — the test is vacuous")
	}
}
