package app

import (
	"testing"

	"fixture/internal/lib"
	"fixture/internal/oracle"
)

func TestOtherPackage(t *testing.T) {
	if lib.UsedByOtherTest() != 3 {
		t.Fatal("UsedByOtherTest")
	}
	// A test may import the oracle package.
	if oracle.Unused() != 7 {
		t.Fatal("oracle.Unused")
	}
}
