//go:build race

package server_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation slows the engine several times over, so wall-clock bounds
// widen under it.
const raceEnabled = true
