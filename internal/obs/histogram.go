package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the upper bounds (seconds) of every latency histogram
// the service keeps — query stages and per-shard scatter calls alike, so the
// families read side by side on one dashboard. Prometheus-style: the implicit
// +Inf bucket is the total count.
var LatencyBuckets = [...]float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation; the zero value is ready to use.
type Histogram struct {
	counts   [len(LatencyBuckets)]atomic.Int64 // per-bucket (non-cumulative)
	total    atomic.Int64
	sumNanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	// total first, and Snapshot reads it last: a concurrent snapshot then
	// counts an in-flight observation in +Inf only, which keeps the
	// cumulative buckets monotone (bucket > +Inf would be invalid exposition).
	h.total.Add(1)
	h.sumNanos.Add(int64(d))
	s := d.Seconds()
	for i, ub := range LatencyBuckets {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]int64, len(LatencyBuckets))}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.SumSeconds = float64(h.sumNanos.Load()) / float64(time.Second)
	s.Count = h.total.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Buckets holds
// the non-cumulative counts per LatencyBuckets entry; observations above
// the last bound are Count minus the bucket sum.
type HistogramSnapshot struct {
	Count      int64
	SumSeconds float64
	Buckets    []int64
}

// InterpolatedQuantile estimates the q-quantile (0 < q < 1) in seconds from
// the bucket counts: it finds the bucket holding the nearest rank,
// ceil(q·Count), and reads linearly inside it — 98 calls under 1 ms and two
// in (1, 5] ms put the p99 at 3 ms. Nearest rank keeps a single straggler
// visible: with 10 observations the p99 is the 10th (slowest) sample's
// bucket, never a faster one. A rank past the last bound reads as the last
// bound. Returns 0 with no observations.
func (s HistogramSnapshot) InterpolatedQuantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(s.Count))), 1)
	var cum int64
	lo := 0.0
	for i, c := range s.Buckets {
		if cum+c >= rank {
			return lo + float64(rank-cum)/float64(c)*(LatencyBuckets[i]-lo)
		}
		cum, lo = cum+c, LatencyBuckets[i]
	}
	return LatencyBuckets[len(LatencyBuckets)-1] // +Inf tail: report the last bound
}
