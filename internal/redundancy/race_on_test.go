//go:build race

package redundancy

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = true
