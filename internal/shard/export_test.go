package shard

// Exported for the external tests in package shard_test.
var (
	TestingDataset = testDataset
	AssertEqual    = assertEqual
	ChaosPolicy    = chaosPolicy
	WaitFor        = waitFor
)
