//go:build race

package redpatch

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts: sync.Pool drops pooled values at random in it.
const raceEnabled = true
