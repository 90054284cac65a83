package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunProducesAllArtefacts(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I", "Table II", "Table V", "Table VI",
		"Figure 6", "Figure 7", "Eq. 3", "Eq. 4",
		"0.99707",       // paper COA
		"CVE-2016-6662", // Table I content
		"1.49991",       // measured dns recovery rate
		"D4, D5",        // Eq. 3 region 1
		"observations",  // §IV-C checks
		"digraph",       // Fig. 2 DOT export
		"digraph harm",  // Fig. 3 HARM DOT export
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "DESIGN.md") {
		t.Error("output points at DESIGN.md, which does not exist")
	}
}

func TestRunCSVMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vulnerability,CVE,") {
		t.Error("CSV mode should emit comma-separated headers")
	}
	if strings.Contains(out, "digraph") {
		t.Error("CSV mode should omit the DOT exports")
	}
}

// TestRunMatchesGolden pins the whole output of both modes byte for byte:
// every table, figure, region and DOT export. The golden files are the
// reproduction as it stands; regenerate them only for an intended change
// to what paper-repro prints.
func TestRunMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		csv  bool
	}{{"paper-repro.golden", false}, {"paper-repro-csv.golden", true}} {
		t.Run(c.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := run(&buf, c.csv); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(buf.Bytes(), want) {
				return
			}
			got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(got) || i < len(exp); i++ {
				var g, e string
				if i < len(got) {
					g = got[i]
				}
				if i < len(exp) {
					e = exp[i]
				}
				if g != e {
					t.Fatalf("line %d differs (got %d lines, want %d)\n got: %q\nwant: %q", i+1, len(got), len(exp), g, e)
				}
			}
			t.Fatal("output differs from golden")
		})
	}
}
