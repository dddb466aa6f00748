//go:build race

package core

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
