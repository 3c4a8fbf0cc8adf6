// Package expt provides the table that the command-line tools, the
// examples and the paper record (internal/figures) report with: aligned
// plain text for terminals, RFC-4180 CSV for files.
package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is an aligned plain-text table.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Add appends a row; missing cells render empty, extra cells are kept
// (the widest row wins).
func (t *Table) Add(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Addf appends a row of formatted values.
func (t *Table) Addf(format string, args ...interface{}) {
	t.Add(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	cell := func(row []string, i int) string {
		if i < len(row) {
			return row[i]
		}
		return ""
	}
	for i := 0; i < cols; i++ {
		if w := len(cell(t.headers, i)); w > width[i] {
			width[i] = w
		}
		for _, r := range t.rows {
			if w := len(cell(r, i)); w > width[i] {
				width[i] = w
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell(row, i))
		}
		b.WriteString("\n")
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", total-2) + "\n")
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV emits the table as RFC-4180 CSV (header row first) for
// external plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.headers) > 0 {
		if err := cw.Write(t.headers); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
