//go:build !race

package tkd_test

const raceEnabled = false
