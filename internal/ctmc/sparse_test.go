package ctmc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTestMatrix() *csr {
	// | 1 0 2 |
	// | 0 3 0 |
	b := newBuilder(2, 3)
	b.add(0, 0, 1)
	b.add(0, 2, 2)
	b.add(1, 1, 3)
	return b.build()
}

// toDense expands m row-major for comparisons.
func toDense(m *csr) [][]float64 {
	d := make([][]float64, m.rows)
	for r := range d {
		d[r] = make([]float64, m.cols)
		m.row(r, func(c int, v float64) { d[r][c] = v })
	}
	return d
}

func TestBuilderBasics(t *testing.T) {
	m := buildTestMatrix()
	if m.rows != 2 || m.cols != 3 {
		t.Fatalf("dims = (%d,%d), want (2,3)", m.rows, m.cols)
	}
	if len(m.vals) != 3 {
		t.Fatalf("stored entries = %d, want 3", len(m.vals))
	}
	d := toDense(m)
	want := [][]float64{{1, 0, 2}, {0, 3, 0}}
	for r := range want {
		for c := range want[r] {
			if d[r][c] != want[r][c] {
				t.Errorf("(%d,%d) = %v, want %v", r, c, d[r][c], want[r][c])
			}
		}
	}
}

func TestBuilderAccumulatesDuplicates(t *testing.T) {
	b := newBuilder(1, 1)
	b.add(0, 0, 1.5)
	b.add(0, 0, 2.5)
	m := b.build()
	if got := toDense(m)[0][0]; got != 4 {
		t.Errorf("(0,0) = %v, want 4", got)
	}
	if len(m.vals) != 1 {
		t.Errorf("stored entries = %d, want 1", len(m.vals))
	}
}

func TestBuilderDropsCancelledEntries(t *testing.T) {
	b := newBuilder(1, 2)
	b.add(0, 0, 1)
	b.add(0, 0, -1)
	b.add(0, 1, 5)
	m := b.build()
	if len(m.vals) != 1 {
		t.Errorf("stored entries = %d, want 1 (cancelled entry should be dropped)", len(m.vals))
	}
	if got := toDense(m)[0][0]; got != 0 {
		t.Errorf("(0,0) = %v, want 0", got)
	}
}

func TestBuilderIgnoresZeros(t *testing.T) {
	b := newBuilder(2, 2)
	b.add(0, 0, 0)
	m := b.build()
	if len(m.vals) != 0 {
		t.Errorf("stored entries = %d, want 0", len(m.vals))
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("add out of range should panic")
		}
	}()
	newBuilder(1, 1).add(1, 0, 1)
}

func TestTranspose(t *testing.T) {
	m := buildTestMatrix()
	tr := m.transpose()
	if tr.rows != 3 || tr.cols != 2 {
		t.Fatalf("transpose dims = (%d,%d), want (3,2)", tr.rows, tr.cols)
	}
	d, dt := toDense(m), toDense(tr)
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if d[r][c] != dt[c][r] {
				t.Errorf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestRowSums(t *testing.T) {
	m := buildTestMatrix()
	sums := m.rowSums()
	if sums[0] != 3 || sums[1] != 3 {
		t.Errorf("rowSums = %v, want [3 3]", sums)
	}
}

func TestRowIteration(t *testing.T) {
	m := buildTestMatrix()
	var cols []int
	var vals []float64
	m.row(0, func(c int, v float64) {
		cols = append(cols, c)
		vals = append(vals, v)
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Errorf("row(0) visited cols=%v vals=%v", cols, vals)
	}
}

func TestFlatDenseBasics(t *testing.T) {
	d := newDense(2, 3)
	if d.rows != 2 || d.cols != 3 || len(d.data) != 6 {
		t.Fatalf("dims = (%d,%d) over %d values, want (2,3) over 6", d.rows, d.cols, len(d.data))
	}
	d.add(0, 2, 5)
	d.add(0, 2, 1.5)
	d.add(1, 0, -2)
	if got := d.row(0)[2]; got != 6.5 {
		t.Errorf("(0,2) = %v, want 6.5", got)
	}
	if got := d.row(1)[0]; got != -2 {
		t.Errorf("(1,0) = %v, want -2", got)
	}
	// row is a live view into the backing.
	d.row(1)[2] = 9
	if got := d.data[1*3+2]; got != 9 {
		t.Errorf("write through row view lost: (1,2) = %v, want 9", got)
	}
}

func TestFlatDenseBoundsPanics(t *testing.T) {
	d := newDense(2, 2)
	for name, fn := range map[string]func(){
		"add":      func() { d.add(0, 2, 1) },
		"row":      func() { d.row(-1) },
		"newDense": func() { newDense(-1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range should panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestTransposeInvolution checks transpose(transpose(m)) == m structurally.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(8)
		b := newBuilder(rows, cols)
		for k := 0; k < rows*cols/2; k++ {
			b.add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := b.build()
		back := m.transpose().transpose()
		if len(m.vals) != len(back.vals) {
			return false
		}
		d, db := toDense(m), toDense(back)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if d[r][c] != db[r][c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
