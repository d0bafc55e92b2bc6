//go:build race

package tkd_test

// raceEnabled reports whether the race detector is compiled in; wall-clock
// floors are not enforced under its instrumentation.
const raceEnabled = true
