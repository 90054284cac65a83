package ctmc

import (
	"fmt"
	"sort"
)

// The compressed sparse row (CSR) matrices the solvers use. Infinitesimal
// generator matrices of stochastic reward nets are extremely sparse (a few
// transitions per state), so the iterative steady-state and transient
// solvers operate on this representation rather than on dense matrices.

// entry is a single coordinate-format matrix element.
type entry struct {
	Row, Col int
	Val      float64
}

// builder accumulates coordinate-format entries and assembles them into a
// CSR matrix. Duplicate (row, col) entries are summed during build, which
// lets callers add transition rates one firing at a time.
type builder struct {
	rows, cols int
	entries    []entry
}

// newBuilder returns a builder for a rows x cols matrix.
func newBuilder(rows, cols int) *builder {
	return &builder{rows: rows, cols: cols}
}

// add records the value v at (row, col). Values at repeated coordinates
// accumulate. add panics if the coordinate is out of range, since that is
// always a programming error in the model generators.
func (b *builder) add(row, col int, v float64) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("ctmc: entry (%d,%d) outside %dx%d matrix", row, col, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.entries = append(b.entries, entry{Row: row, Col: col, Val: v})
}

// build assembles the accumulated entries into a CSR matrix, summing
// duplicates and dropping entries that cancel to exactly zero.
func (b *builder) build() *csr {
	sort.Slice(b.entries, func(i, j int) bool {
		if b.entries[i].Row != b.entries[j].Row {
			return b.entries[i].Row < b.entries[j].Row
		}
		return b.entries[i].Col < b.entries[j].Col
	})

	m := &csr{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int, b.rows+1),
	}
	for i := 0; i < len(b.entries); {
		j := i
		sum := 0.0
		for ; j < len(b.entries) && b.entries[j].Row == b.entries[i].Row && b.entries[j].Col == b.entries[i].Col; j++ {
			sum += b.entries[j].Val
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, b.entries[i].Col)
			m.vals = append(m.vals, sum)
			m.rowPtr[b.entries[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < b.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// csr is an immutable matrix in compressed sparse row format.
type csr struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// row invokes fn for each stored entry (col, val) of the given row.
func (m *csr) row(row int, fn func(col int, val float64)) {
	for i := m.rowPtr[row]; i < m.rowPtr[row+1]; i++ {
		fn(m.colIdx[i], m.vals[i])
	}
}

// transpose returns a new CSR matrix that is the transpose of m.
func (m *csr) transpose() *csr {
	b := newBuilder(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			b.add(m.colIdx[i], r, m.vals[i])
		}
	}
	return b.build()
}

// rowSums returns the sum of each row's stored values.
func (m *csr) rowSums() []float64 {
	sums := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			sums[r] += m.vals[i]
		}
	}
	return sums
}

// dense is a dense matrix over a single flat row-major backing slice. The
// direct solvers assemble their augmented elimination systems in one: one
// allocation per solve instead of one per row.
type dense struct {
	rows, cols int
	data       []float64
}

// newDense returns a zeroed rows x cols flat dense matrix.
func newDense(rows, cols int) *dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("ctmc: negative dense dimensions %dx%d", rows, cols))
	}
	return &dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// row returns the i-th row as a slice view into the flat backing; writes
// through it mutate the matrix.
func (d *dense) row(i int) []float64 {
	if i < 0 || i >= d.rows {
		panic(fmt.Sprintf("ctmc: row %d outside %dx%d matrix", i, d.rows, d.cols))
	}
	return d.data[i*d.cols : (i+1)*d.cols]
}

// add accumulates v at (row, col).
func (d *dense) add(row, col int, v float64) {
	if row < 0 || row >= d.rows || col < 0 || col >= d.cols {
		panic(fmt.Sprintf("ctmc: index (%d,%d) outside %dx%d matrix", row, col, d.rows, d.cols))
	}
	d.data[row*d.cols+col] += v
}
