package wal

// Exported for the external tests in package wal_test.
var (
	FrameHeader = frameHeader
	TestRows    = testRows
	SameRows    = sameRows
)
