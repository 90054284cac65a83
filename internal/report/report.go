// Package report renders the outputs of the evaluation pipeline in the
// forms the paper presents them: aligned text tables (Tables I–VI and the
// Fig. 7 comparison) and scatter plots (Fig. 6), plus CSV tables for
// external plotting. All rendering is deterministic.
package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a titled text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells and long
// rows are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table as comma-separated values with a header row.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(strconv.Quote(c))
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.headers)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with the given number of decimals.
func F(x float64, decimals int) string {
	return strconv.FormatFloat(x, 'f', decimals, 64)
}

// I formats an int.
func I(x int) string { return strconv.Itoa(x) }

// ScatterPoint is one labelled point of a scatter plot.
type ScatterPoint struct {
	Label string
	X, Y  float64
}

// ScatterSeries is the data behind one of the paper's Fig. 6 panels.
type ScatterSeries struct {
	Title  string
	XLabel string
	YLabel string
	Points []ScatterPoint
}

// ASCIIPlot renders the scatter series as a text plot of roughly the
// given dimensions (minimums apply), marking each point with its 1-based
// index and listing a legend underneath. Points sharing a cell keep the
// first marker. The output is deterministic.
func (s ScatterSeries) ASCIIPlot(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 5 {
		height = 5
	}
	if len(s.Points) == 0 {
		return s.Title + "\n(no points)\n"
	}
	minX, maxX := s.Points[0].X, s.Points[0].X
	minY, maxY := s.Points[0].Y, s.Points[0].Y
	for _, p := range s.Points[1:] {
		minX = minFloat(minX, p.X)
		maxX = maxFloat(maxX, p.X)
		minY = minFloat(minY, p.Y)
		maxY = maxFloat(maxY, p.Y)
	}
	// Pad degenerate ranges so every point lands inside the grid.
	if maxX == minX {
		minX, maxX = minX-1, maxX+1
	}
	if maxY == minY {
		minY, maxY = minY-1, maxY+1
	}
	padX := (maxX - minX) * 0.05
	padY := (maxY - minY) * 0.05
	minX, maxX = minX-padX, maxX+padX
	minY, maxY = minY-padY, maxY+padY

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = make([]byte, width)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	marker := func(i int) byte {
		if i < 9 {
			return byte('1' + i)
		}
		return byte('a' + i - 9)
	}
	for i, p := range s.Points {
		col := int((p.X - minX) / (maxX - minX) * float64(width-1))
		row := height - 1 - int((p.Y-minY)/(maxY-minY)*float64(height-1))
		if grid[row][col] == ' ' {
			grid[row][col] = marker(i)
		}
	}

	var b strings.Builder
	if s.Title != "" {
		b.WriteString(s.Title)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%s (vertical), %s (horizontal)\n", s.YLabel, s.XLabel)
	fmt.Fprintf(&b, "%10.6f ", maxY)
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	for r := 0; r < height; r++ {
		b.WriteString(strings.Repeat(" ", 11))
		b.WriteString("|")
		b.Write(grid[r])
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "%10.6f ", minY)
	b.WriteString("+" + strings.Repeat("-", width) + "+\n")
	fmt.Fprintf(&b, "%12s%-*.6f%*.6f\n", "", width/2, minX, width-width/2, maxX)
	for i, p := range s.Points {
		fmt.Fprintf(&b, "  %c = %s (%.6f, %.6f)\n", marker(i), p.Label, p.X, p.Y)
	}
	return b.String()
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
