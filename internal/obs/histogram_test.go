package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramSnapshotUnderObservation: a snapshot taken while other
// goroutines observe never shows more bucketed observations than Count —
// the exposition's cumulative buckets may not pass +Inf — and the final
// snapshot accounts for every observation, the overflow tail included.
func TestHistogramSnapshotUnderObservation(t *testing.T) {
	var h Histogram
	const writers, each = 4, 2400 // each: a multiple of the 12 durations
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(i%12) * time.Second / 2) // 0 … 5.5 s: every bucket and the tail
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := h.Snapshot()
		var bucketed int64
		for _, c := range s.Buckets {
			bucketed += c
		}
		if bucketed > s.Count {
			t.Fatalf("snapshot holds %d bucketed observations but Count %d", bucketed, s.Count)
		}
	}
	s := h.Snapshot()
	if s.Count != writers*each {
		t.Fatalf("Count = %d, want %d", s.Count, writers*each)
	}
	var bucketed int64
	for _, c := range s.Buckets {
		bucketed += c
	}
	if tail := s.Count - bucketed; tail != writers*each/12 { // only 5.5 s is above the last bound
		t.Fatalf("overflow tail = %d, want %d", tail, writers*each/12)
	}
	if want := float64(writers) * 6600; s.SumSeconds != want {
		t.Fatalf("SumSeconds = %v, want %v", s.SumSeconds, want)
	}
}
