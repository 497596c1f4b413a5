// Package report renders evaluation results as aligned ASCII tables and
// CSV, shared by the benchmark harness and the command-line tools.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows under a fixed header for aligned rendering.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; missing cells render empty, extras are kept.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// WriteTo renders the table with column alignment. It reports the bytes
// written, satisfying io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var total int64
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width, c)
		}
		n, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		total += int64(n)
		return err
	}
	if err := writeRow(t.header); err != nil {
		return total, err
	}
	sep := make([]string, len(t.header))
	for i, width := range widths {
		sep[i] = strings.Repeat("-", width)
	}
	if err := writeRow(sep); err != nil {
		return total, err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return fmt.Sprintf("report: render failed: %v", err)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header line.
// Cells containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			if i > 0 {
				b.WriteByte(',')
			}
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a ratio in [0,1] as the paper's three-decimal style
// ("0.932"); NaN renders as "n/a".
func Pct(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}
