package data

// ScanCSV and ReferenceCSV are ParseCSV's two paths, for the tests that hold
// the scanner to the encoding/csv loop.
var (
	ScanCSV      = scanCSV
	ReferenceCSV = readCSV
)
