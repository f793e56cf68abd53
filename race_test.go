//go:build race

package jiffy_test

// raceEnabled reports whether the test binary was built with the race
// detector (see norace_test.go).
const raceEnabled = true
