// Package report renders experiment output as text tables, figure CSV and
// dependency-free ASCII charts, for the command-line tools and
// EXPERIMENTS.md.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced paper figure: one or more series over a shared
// axis pair.
type Figure struct {
	ID     string // e.g. "fig3"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// CSV renders the figure as a wide CSV: x, then one column per series.
// Series are aligned by index; the longest series defines the row count.
func (f Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	rows := 0
	for _, s := range f.Series {
		fmt.Fprintf(&sb, ",%s", s.Name)
		if len(s.X) > rows {
			rows = len(s.X)
		}
	}
	sb.WriteByte('\n')
	for i := 0; i < rows; i++ {
		for si, s := range f.Series {
			if si == 0 && i < len(s.X) {
				fmt.Fprintf(&sb, "%g", s.X[i])
			}
			if i < len(s.Y) {
				fmt.Fprintf(&sb, ",%.10g", s.Y[i])
			} else {
				sb.WriteByte(',')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ASCII renders the figure as a fixed-size character chart with one mark
// per series ('a', 'b', 'c', ...). It is intentionally simple: enough to
// eyeball curve shapes and crossovers in a terminal.
func (f Figure) ASCII(width, height int) string {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range f.Series {
		for i := range s.X {
			minX = math.Min(minX, s.X[i])
			maxX = math.Max(maxX, s.X[i])
			minY = math.Min(minY, s.Y[i])
			maxY = math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return f.Title + "\n(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range f.Series {
		mark := byte('a' + si%26)
		for i := range s.X {
			col := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			row := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(height-1)))
			r := height - 1 - row
			grid[r][col] = mark
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&sb, "y: %s in [%.8g, %.8g]\n", f.YLabel, minY, maxY)
	for _, row := range grid {
		sb.WriteString("  |")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteString("  +" + strings.Repeat("-", width) + "\n")
	fmt.Fprintf(&sb, "   x: %s in [%g, %g]\n", f.XLabel, minX, maxX)
	for si, s := range f.Series {
		fmt.Fprintf(&sb, "   %c = %s\n", 'a'+si%26, s.Name)
	}
	return sb.String()
}

// Table is a rendered result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.8g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Text renders the table with aligned columns.
func (t Table) Text() string {
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
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
