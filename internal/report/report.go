// Package report renders experiment results as aligned text tables and CSV
// series, the output format of cmd/paperrepro and EXPERIMENTS.md.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; the cell count must match the headers.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Headers) {
		return fmt.Errorf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers))
	}
	t.rows = append(t.rows, cells)
	return nil
}

// MustAddRow is AddRow for rows known to match; it panics on mismatch,
// which indicates a programming error in an experiment runner.
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, r := range t.rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return b.String()
}

// F formats a float with the given number of decimals.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Pct formats a percentage with two decimals.
func Pct(v float64) string { return fmt.Sprintf("%.2f%%", v) }

// Norm formats a normalized execution time with three decimals.
func Norm(v float64) string { return F(v, 3) }
