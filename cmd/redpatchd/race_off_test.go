//go:build !race

package main

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts.
const raceEnabled = false
