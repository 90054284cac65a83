package app

import (
	"testing"

	"fixture/internal/lib"
)

func TestOtherPackage(t *testing.T) {
	if lib.UsedByOtherTest() != 3 {
		t.Fatal("UsedByOtherTest")
	}
}
