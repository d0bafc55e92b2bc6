//go:build race

package bitmapidx

// raceEnabled reports whether the race detector is compiled in; under it a
// sync.Pool drops a share of what is put into it, so allocation bounds on a
// pooled path do not hold.
const raceEnabled = true
