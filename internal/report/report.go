// Package report renders the evaluation artifacts: a plain-text table
// writer in the style of the paper's Tables 1 and 2, and the drivers
// that regenerate those tables by running the estimator against the
// ground-truth layout engine on the reconstructed benchmark suites,
// plus the other experiments that need that engine: the congestion
// route validation and the §7 floor-planning iteration experiment.
package report

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered-ready grid of strings.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t.Title != "" {
		fmt.Fprintln(bw, t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], c)
		}
		fmt.Fprintln(bw)
	}
	line(t.Header)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	fmt.Fprintln(bw, strings.Repeat("-", max(total-2, 1)))
	for _, row := range t.Rows {
		line(row)
	}
	return bw.Flush()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
