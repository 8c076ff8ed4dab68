// Package report renders analysis results as aligned ASCII tables, text
// histograms with CDF columns (Fig. 3), series plots (Fig. 5) and heatmaps
// (Fig. 9), plus CSV for downstream plotting.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	_, _ = t.WriteTo(&sb)
	return sb.String()
}

// Histogram renders counts as horizontal bars with a CDF column, the text
// analogue of the paper's Fig. 3 bar+CDF plot.
func Histogram(title string, labels []int, freqs []int, cdf []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	maxF := 0
	for _, f := range freqs {
		if f > maxF {
			maxF = f
		}
	}
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	for i, l := range labels {
		bar := 0
		if maxF > 0 {
			bar = freqs[i] * width / maxF
		}
		fmt.Fprintf(&sb, "%3d | %-*s %5d  cdf=%.3f\n", l, width, strings.Repeat("#", bar), freqs[i], cdf[i])
	}
	return sb.String()
}

// Series renders (x, y) points per named series, the text analogue of
// Fig. 5's line plot.
func Series(title string, xs []int, series map[string][]float64, order []string) string {
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	fmt.Fprintf(&sb, "%-16s", "series \\ s")
	for _, x := range xs {
		fmt.Fprintf(&sb, " %6d", x)
	}
	sb.WriteByte('\n')
	for _, name := range order {
		ys := series[name]
		fmt.Fprintf(&sb, "%-16s", name)
		for _, y := range ys {
			fmt.Fprintf(&sb, " %6.4f", y)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Heatmap renders a symmetric matrix with shade characters, the text
// analogue of Fig. 9.
func Heatmap(title string, labels []string, m [][]float64) string {
	shades := []rune(" .:-=+*#%@")
	var sb strings.Builder
	if title != "" {
		sb.WriteString(title + "\n")
	}
	width := 0
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for i, l := range labels {
		fmt.Fprintf(&sb, "%-*s ", width, l)
		for j := range labels {
			v := m[i][j]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			idx := int(v * float64(len(shades)-1))
			sb.WriteRune(shades[idx])
			sb.WriteRune(shades[idx])
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "  (row AMI: ")
		for j := range labels {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.2f", m[i][j])
		}
		sb.WriteString(")\n")
	}
	return sb.String()
}
