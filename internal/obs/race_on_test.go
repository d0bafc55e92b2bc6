//go:build race

package obs

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation moves some stack values to the heap, so allocation counts
// are not pinned under it.
const raceEnabled = true
