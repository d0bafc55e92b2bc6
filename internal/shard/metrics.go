package shard

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics aggregates one sharded dataset's counters: how many candidates the
// pushed-down τ pruned before exact scoring (either plan), and for the
// windowed plan (Run) how many shard calls fanned out and a per-shard
// latency histogram (the lens for spotting a straggler peer). RunLocal makes
// no shard call and reads no clock per candidate, so in-process shards leave
// those two at zero. Counters persist across shard reloads and epoch swaps.
type Metrics struct {
	fanout    atomic.Int64
	pushdowns atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	degraded  atomic.Int64
	perShard  []obs.Histogram
}

// NewMetrics sizes the per-shard histograms for n shards; n = 0 is the
// throwaway a coordinator or replica set built without metrics counts into.
func NewMetrics(n int) *Metrics {
	return &Metrics{perShard: make([]obs.Histogram, n)}
}

func (m *Metrics) observeShard(s int, d time.Duration) {
	if s < len(m.perShard) {
		m.perShard[s].Observe(d)
	}
}

// ShardLatency is one shard's scatter-latency histogram snapshot.
type ShardLatency = obs.HistogramSnapshot

// Snapshot is a point-in-time copy of the metrics.
type Snapshot struct {
	// Fanout counts the windowed plan's shard scatter calls (one per shard
	// per phase per window).
	Fanout int64
	// TauPushdowns counts candidates pruned because their per-shard bound
	// sum could not beat the pushed-down global τ — the cross-shard form of
	// bitmap pruning, on either plan.
	TauPushdowns int64
	// Retries counts scatter calls re-issued to another replica after a
	// retryable failure (or a stale 409 replica-switch).
	Retries int64
	// Hedges counts duplicate scatter calls fired at a second replica to
	// cut tail latency.
	Hedges int64
	// Degraded counts queries answered in AllowPartial degraded mode —
	// exact over the live row-ranges, with at least one shard down.
	Degraded int64
	// PerShard holds each shard's scatter-latency histogram (windowed plan).
	PerShard []ShardLatency
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Fanout:       m.fanout.Load(),
		TauPushdowns: m.pushdowns.Load(),
		Retries:      m.retries.Load(),
		Hedges:       m.hedges.Load(),
		Degraded:     m.degraded.Load(),
		PerShard:     make([]ShardLatency, len(m.perShard)),
	}
	for i := range m.perShard {
		s.PerShard[i] = m.perShard[i].Snapshot()
	}
	return s
}
