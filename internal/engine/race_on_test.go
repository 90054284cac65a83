//go:build race

package engine

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
