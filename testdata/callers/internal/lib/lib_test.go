package lib

import "testing"

func TestUsedByOwnTest(t *testing.T) {
	if UsedByOwnTest() != 2 {
		t.Fatal("UsedByOwnTest")
	}
}
