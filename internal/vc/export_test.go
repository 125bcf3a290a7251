package vc

// SetTestHooks installs Drive's barrier hooks for this package's external
// tests and returns the function that removes them.
func SetTestHooks(afterCommit func(i int, cm *Commitment), preDecommit func()) (restore func()) {
	testHookAfterCommit, testHookPreDecommit = afterCommit, preDecommit
	return func() { testHookAfterCommit, testHookPreDecommit = nil, nil }
}
