// Package app is the fixture's non-test user of internal/lib and of the
// root package.
package app

import (
	"fixture"
	"fixture/internal/lib"
)

// Speaker is the module interface through which lib.Voice.Speak is used.
type Speaker interface{ Speak() string }

// Run calls lib through a direct call and through Speaker.
func Run() string {
	var s Speaker = lib.Voice{}
	_ = lib.UsedByCode() + fixture.UsedByApp()
	return s.Speak()
}
