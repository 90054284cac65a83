package fixture

import "testing"

func TestUsedByOwnTest(t *testing.T) {
	if UsedByOwnTest() != 6 {
		t.Fatal("UsedByOwnTest")
	}
}
