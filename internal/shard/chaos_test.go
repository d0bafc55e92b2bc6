package shard

import (
	"context"
	"errors"
	"fmt"
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
