// Package fixture is the fixture module's root package, which the gate
// scans like internal/.
package fixture

// UsedByApp is called from app's non-test code, so it has a caller.
func UsedByApp() int { return 5 }

// UsedByOwnTest is called only from the root package's own test.
func UsedByOwnTest() int { return 6 }
