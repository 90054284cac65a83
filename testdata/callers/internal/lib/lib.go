// Package lib holds one name per rule of the caller gate.
package lib

// UsedByCode is called from app's non-test code, so it has a caller.
func UsedByCode() int { return 1 }

// UsedByOwnTest is called only from lib's own test.
func UsedByOwnTest() int { return 2 }

// UsedByOtherTest is called only from app's test, which is no caller.
func UsedByOtherTest() int { return 3 }

// Allowlisted has no caller; the gate keeps it through its allowlist.
func Allowlisted() int { return 4 }

// Voice is handed to app as an app.Speaker value.
type Voice struct{}

// Speak is reached only through the app.Speaker interface.
func (Voice) Speak() string { return "hello" }
