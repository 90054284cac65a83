// Package serving is non-test code that imports the oracle package.
package serving

import "fixture/internal/oracle"

// Answer serves the oracle's number.
func Answer() int { return oracle.Reference() }
