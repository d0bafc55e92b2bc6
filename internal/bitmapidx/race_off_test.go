//go:build !race

package bitmapidx

const raceEnabled = false
