//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation breaks exact allocation accounting and
// whose sync.Pool drops items at random.
const raceEnabled = true
