package redundancy

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// dominates is the dominance rule on the (minimize ASP, maximize COA)
// plane that Front's sort-and-scan implements: a is no worse than b on
// both axes and strictly better on at least one. The quadratic
// reference applies it pairwise.
func dominates(aASP, aCOA, bASP, bCOA float64) bool {
	return aASP <= bASP && aCOA >= bCOA && (aASP < bASP || aCOA > bCOA)
}

// quadraticFront is the reference Front: every item is tested against
// every other with dominates, and the survivors are sorted in Front's
// total order. It is O(n²) and calls point in its inner loop.
func quadraticFront[T any](items []T, point func(T) (asp, coa float64), tiebreak func(a, b T) int) []T {
	var front []T
	for i, r := range items {
		rASP, rCOA := point(r)
		dominated := false
		for j, s := range items {
			if i == j {
				continue
			}
			if sASP, sCOA := point(s); dominates(sASP, sCOA, rASP, rCOA) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, r)
		}
	}
	slices.SortFunc(front, func(a, b T) int {
		aASP, aCOA := point(a)
		bASP, bCOA := point(b)
		if c := cmp.Compare(aASP, bASP); c != 0 {
			return c
		}
		if c := cmp.Compare(bCOA, aCOA); c != 0 {
			return c
		}
		return tiebreak(a, b)
	})
	return front
}

// frontCoords is the coordinate palette the fuzz decoding draws from:
// few enough values that ties, duplicate points and equal ASP with
// different COA are common, plus NaN, ±Inf and both zeros.
var frontCoords = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e-300, 0.1, 0.2, 0.25, 0.5, 0.75, 0.99, 0.999, 0.9999, 1, 2, -1,
}

// maxFrontItems bounds a decoded fuzz input: more than a 512-design
// sweep, few enough for the reference's n² comparisons.
const maxFrontItems = 1024

// frontItem is one decoded fuzz point: id is its input position, label
// the tiebreak key, which collides on purpose.
type frontItem struct {
	asp, coa  float64
	id, label int
}

// decodeFrontItems reads three bytes per item: ASP, COA (both indexes
// into frontCoords) and a tiebreak label in 0..3. It stops at
// maxFrontItems, which keeps the quadratic reference fast.
func decodeFrontItems(data []byte) []frontItem {
	var items []frontItem
	for i := 0; i+2 < len(data) && len(items) < maxFrontItems; i += 3 {
		items = append(items, frontItem{
			asp:   frontCoords[int(data[i])%len(frontCoords)],
			coa:   frontCoords[int(data[i+1])%len(frontCoords)],
			id:    len(items),
			label: int(data[i+2]) % 4,
		})
	}
	return items
}

// FuzzFrontMatchesQuadratic pins the sort-then-scan Front to the
// quadratic reference: the same members in the same order on every
// input, including duplicate points, tiebreak collisions, NaN and ±Inf.
func FuzzFrontMatchesQuadratic(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 13, 0, 9, 11, 1, 9, 13, 0, 7, 11, 2})                // duplicates, equal ASP
	f.Add([]byte{0, 9, 0, 9, 0, 1, 1, 14, 2, 2, 2, 3, 3, 4, 0, 4, 3, 1}) // NaN, ±Inf, ±0
	large := make([]byte, 3*512)
	x := uint32(7)
	for i := range large {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		large[i] = byte(x)
	}
	f.Add(large)
	point := func(it frontItem) (float64, float64) { return it.asp, it.coa }
	tiebreak := func(a, b frontItem) int { return cmp.Compare(a.label, b.label) }
	f.Fuzz(func(t *testing.T, data []byte) {
		items := decodeFrontItems(data)
		got := Front(items, point, tiebreak)
		want := quadraticFront(items, point, tiebreak)
		ids := func(front []frontItem) []int {
			out := make([]int, len(front))
			for i, it := range front {
				out[i] = it.id
			}
			return out
		}
		if (got == nil) != (want == nil) || !slices.Equal(ids(got), ids(want)) {
			t.Fatalf("Front = %v, quadratic reference = %v on %+v", ids(got), ids(want), items)
		}
	})
}
