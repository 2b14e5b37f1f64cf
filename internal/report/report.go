// Package report renders experiment results as aligned ASCII tables and
// CSV series, the output formats of the benchmark harness (cmd/benchall
// and the bench_test.go targets).
package report

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them column-aligned.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; values are formatted with %v (floats with %.4g via F).
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	widths := make([]int, cols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i := 0; i < cols && i < len(r); i++ {
			if len(r[i]) > widths[i] {
				widths[i] = len(r[i])
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (for plotting). Cells
// containing commas, quotes, or newlines are quoted per RFC 4180 with
// embedded quotes doubled; plain cells are emitted verbatim.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, t.Headers)
	for _, r := range t.rows {
		writeCSVRow(&sb, r)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(csvCell(c))
	}
	sb.WriteString("\n")
}

// csvCell quotes a cell when its content would break the row structure.
func csvCell(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }

// F2 formats with two decimals.
func F2(f float64) string { return fmt.Sprintf("%.2f", f) }

// F1 formats with one decimal.
func F1(f float64) string { return fmt.Sprintf("%.1f", f) }

// SI formats a count with engineering suffixes (K/M/B), matching the
// paper's Table 3 style. Negative values keep their sign with the same
// suffix rules applied to the magnitude.
func SI(v float64) string {
	sign := ""
	if v < 0 {
		sign, v = "-", -v
	}
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%s%.1fB", sign, v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%s%.1fM", sign, v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%s%.1fK", sign, v/1e3)
	}
	return fmt.Sprintf("%s%.0f", sign, v)
}
