package main

import (
	"bytes"
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
