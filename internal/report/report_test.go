package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("be", "22")
	out := tbl.Render()
	if !strings.HasPrefix(out, "Demo\n") {
		t.Errorf("title missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator wrong: %q", lines[2])
	}
	// Alignment: the "value" column must start at the same offset in
	// every row.
	idx := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][idx:], "1") || !strings.HasPrefix(lines[4][idx:], "22") {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("1")                    // short row padded
	tbl.AddRow("1", "2", "3", "extra") // long row truncated
	out := tbl.Render()
	if strings.Contains(out, "extra") {
		t.Error("long rows must be truncated to the header width")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("ignored", "name", "note")
	tbl.AddRow("a", "plain")
	tbl.AddRow("b", `with "quotes", commas`)
	csv := tbl.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "name,note" {
		t.Errorf("CSV header = %q", lines[0])
	}
	if lines[1] != "a,plain" {
		t.Errorf("CSV row = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], `b,"with `) {
		t.Errorf("CSV quoting wrong: %q", lines[2])
	}
}

func TestFormatters(t *testing.T) {
	if F(0.99707, 3) != "0.997" {
		t.Errorf("F = %q", F(0.99707, 3))
	}
	if I(42) != "42" {
		t.Errorf("I = %q", I(42))
	}
}

func TestScatterSeries(t *testing.T) {
	s := ScatterSeries{
		Title:  "After patch",
		XLabel: "ASP",
		YLabel: "COA",
		Points: []ScatterPoint{
			{Label: "1 DNS + 1 WEB + 1 APP + 1 DB", X: 0.09, Y: 0.9956},
		},
	}
	out := s.ASCIIPlot(40, 10)
	for _, want := range []string{"After patch", "ASP", "COA", "1 DNS"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCIIPlot missing %q:\n%s", want, out)
		}
	}
}

func TestASCIIPlot(t *testing.T) {
	s := ScatterSeries{
		Title:  "designs",
		XLabel: "ASP",
		YLabel: "COA",
		Points: []ScatterPoint{
			{Label: "D1", X: 0.09, Y: 0.9956},
			{Label: "D4", X: 0.15, Y: 0.9964},
		},
	}
	out := s.ASCIIPlot(40, 10)
	for _, want := range []string{"designs", "COA", "ASP", "1", "2", "D1", "D4", "+---"} {
		if !strings.Contains(out, want) {
			t.Errorf("ASCIIPlot missing %q:\n%s", want, out)
		}
	}
	if out != s.ASCIIPlot(40, 10) {
		t.Error("ASCIIPlot must be deterministic")
	}
	// Degenerate cases must not panic.
	if got := (ScatterSeries{Title: "empty"}).ASCIIPlot(40, 10); !strings.Contains(got, "no points") {
		t.Error("empty series should render a placeholder")
	}
	one := ScatterSeries{Points: []ScatterPoint{{Label: "only", X: 1, Y: 1}}}
	if got := one.ASCIIPlot(1, 1); !strings.Contains(got, "only") {
		t.Error("single point with tiny dimensions should render")
	}
}

func TestASCIIPlotManyPoints(t *testing.T) {
	var s ScatterSeries
	for i := 0; i < 12; i++ {
		s.Points = append(s.Points, ScatterPoint{Label: "p", X: float64(i), Y: float64(i % 5)})
	}
	out := s.ASCIIPlot(60, 12)
	// Markers beyond 9 continue with letters.
	for _, want := range []string{"9", "a", "b", "c"} {
		if !strings.Contains(out, want+" = p") {
			t.Errorf("marker %q missing:\n%s", want, out)
		}
	}
}
