package oracle

import (
	"fmt"
	"math"

	"redpatch/internal/mathx"
	"redpatch/internal/srn"
)

// PlaceInvariants returns a basis of the left null space of the incidence
// matrix: weight vectors y over places such that the weighted token count
// y·M is constant under every transition firing. Token-conservation laws
// of the model (e.g. "the hardware token never leaves the hardware
// sub-model") appear here; the basis is computed over floats by Gaussian
// elimination, so vectors may mix signs.
func PlaceInvariants(n *srn.Net) [][]float64 {
	inc := n.IncidenceMatrix()
	nPlaces := len(inc)
	nTrans := len(n.Transitions())

	// Solve y^T C = 0, i.e. C^T y = 0: eliminate on the nTrans x nPlaces
	// matrix A = C^T and read the null space off the free columns.
	a := make([][]float64, nTrans)
	for t := 0; t < nTrans; t++ {
		a[t] = make([]float64, nPlaces)
		for p := 0; p < nPlaces; p++ {
			a[t][p] = float64(inc[p][t])
		}
	}

	pivotOfCol := make([]int, nPlaces)
	for i := range pivotOfCol {
		pivotOfCol[i] = -1
	}
	row := 0
	for col := 0; col < nPlaces && row < nTrans; col++ {
		pivot := -1
		best := 1e-9
		for r := row; r < nTrans; r++ {
			if math.Abs(a[r][col]) > best {
				best = math.Abs(a[r][col])
				pivot = r
			}
		}
		if pivot < 0 {
			continue
		}
		a[row], a[pivot] = a[pivot], a[row]
		inv := 1 / a[row][col]
		for k := col; k < nPlaces; k++ {
			a[row][k] *= inv
		}
		for r := 0; r < nTrans; r++ {
			if r == row {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for k := col; k < nPlaces; k++ {
				a[r][k] -= f * a[row][k]
			}
		}
		pivotOfCol[col] = row
		row++
	}

	var basis [][]float64
	for col := 0; col < nPlaces; col++ {
		if pivotOfCol[col] >= 0 {
			continue // bound column
		}
		y := make([]float64, nPlaces)
		y[col] = 1
		for c2 := 0; c2 < nPlaces; c2++ {
			if r := pivotOfCol[c2]; r >= 0 {
				y[c2] = -a[r][col]
			}
		}
		basis = append(basis, y)
	}
	return basis
}

// CheckConservation verifies that every tangible marking of the generated
// state space conserves every place invariant of the net (the weighted
// token count matches the initial marking's). A violation means the state
// space and the net structure disagree — an internal error worth failing
// loudly on.
func CheckConservation(n *srn.Net, ss *srn.StateSpace) error {
	invariants := PlaceInvariants(n)
	if len(invariants) == 0 {
		return nil
	}
	m0 := n.InitialMarking()
	want := make([]float64, len(invariants))
	for i, y := range invariants {
		want[i] = dot(y, m0)
	}
	for _, m := range ss.Markings() {
		for i, y := range invariants {
			if got := dot(y, m); !mathx.AlmostEqual(got, want[i], 1e-6) {
				return fmt.Errorf("oracle: marking %s violates invariant %d: weighted count %v, want %v",
					n.MarkingString(m), i, got, want[i])
			}
		}
	}
	return nil
}

func dot(y []float64, m srn.Marking) float64 {
	var s float64
	for i, w := range y {
		s += w * float64(m[i])
	}
	return s
}
