// Package experiments implements the reproduction harness: one function
// per experiment of README's "Experiments" section (Registry lists
// them with their parameters), each returning a Table with the same rows
// the evaluation reports. cmd/escape-bench prints them.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Table is one experiment's result set.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// addRow appends a formatted row.
func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// jsonCell types one rendered cell: integers and floats become JSON
// numbers, true/false and yes/no booleans, anything else (labels, the
// "-" placeholder of inapplicable cells) stays a string.
func jsonCell(cell string) any {
	if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil {
		return f
	}
	switch cell {
	case "true", "yes":
		return true
	case "false", "no":
		return false
	}
	return cell
}

// WriteJSON writes the table as the machine-readable CI artifact:
// {id, title, columns, rows: [{column: value}]}.
func (t *Table) WriteJSON(path string) error {
	rows := make([]map[string]any, len(t.Rows))
	for i, r := range t.Rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("experiments: %s row %d has %d cells for %d columns", t.ID, i, len(r), len(t.Columns))
		}
		rows[i] = make(map[string]any, len(r))
		for c, cell := range r {
			rows[i][t.Columns[c]] = jsonCell(cell)
		}
	}
	data, err := json.MarshalIndent(struct {
		ID      string           `json:"id"`
		Title   string           `json:"title"`
		Columns []string         `json:"columns"`
		Rows    []map[string]any `json:"rows"`
	}{t.ID, t.Title, t.Columns, rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ms formats a duration in milliseconds with 2 decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}
