//go:build race

package core

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation breaks exact allocation accounting.
const raceEnabled = true
