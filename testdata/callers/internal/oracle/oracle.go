// Package oracle stands for the reference code that tests compare fast
// paths against: its exports need no caller.
package oracle

// Unused has no caller and is exempt.
func Unused() int { return 7 }

// Reference is imported by serving, which the gate reports.
func Reference() int { return 8 }
