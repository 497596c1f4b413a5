package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Name", "ACC")
	tab.AddRow("winscp_reverse_tcp", "0.932")
	tab.AddRow("x", "0.8")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("separator = %q", lines[1])
	}
	// Columns align: "ACC" starts at the same offset in each line.
	off := strings.Index(lines[0], "ACC")
	if strings.Index(lines[2], "0.932") != off {
		t.Errorf("column misaligned:\n%s", out)
	}
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
}

func TestTableShortRow(t *testing.T) {
	tab := NewTable("A", "B", "C")
	tab.AddRow("x")
	out := tab.String()
	if !strings.Contains(out, "x") {
		t.Errorf("short row missing:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	tab := NewTable("Name", "Value")
	tab.AddRow("plain", "1")
	tab.AddRow(`with "quote", and comma`, "2")
	csv := tab.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if lines[0] != "Name,Value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "plain,1" {
		t.Errorf("row 1 = %q", lines[1])
	}
	if lines[2] != `"with ""quote"", and comma",2` {
		t.Errorf("quoted row = %q", lines[2])
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.9321); got != "0.932" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(math.NaN()); got != "n/a" {
		t.Errorf("Pct(NaN) = %q", got)
	}
}
