package report

import (
	"fmt"
	"strings"
	"testing"
)

func sampleFigure() Figure {
	return Figure{
		ID: "fig0", Title: "sample", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "up", X: []float64{0, 1, 2}, Y: []float64{0, 1, 2}},
			{Name: "down", X: []float64{0, 1, 2}, Y: []float64{2, 1, 0}},
		},
	}
}

func TestFigureCSV(t *testing.T) {
	csv := sampleFigure().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "x,up,down" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d, want 4", len(lines))
	}
	if lines[1] != "0,0,2" {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestFigureASCII(t *testing.T) {
	s := sampleFigure().ASCII(40, 10)
	for _, want := range []string{"fig0", "a = up", "b = down", "x: x in [0, 2]"} {
		if !strings.Contains(s, want) {
			t.Errorf("ASCII missing %q in:\n%s", want, s)
		}
	}
	// Both marks must appear in the plot body.
	if !strings.Contains(s, "a") || !strings.Contains(s, "b") {
		t.Error("marks missing from plot")
	}
}

func TestFigureASCIIEmpty(t *testing.T) {
	f := Figure{ID: "e", Title: "empty"}
	if s := f.ASCII(40, 10); !strings.Contains(s, "no data") {
		t.Errorf("empty figure = %q", s)
	}
}

func TestFigureASCIIDegenerate(t *testing.T) {
	f := Figure{ID: "d", Title: "flat", Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{5}}}}
	s := f.ASCII(1, 1) // forces minimum sizing
	if !strings.Contains(s, "s") {
		t.Errorf("flat figure render = %q", s)
	}
}

func TestTableTextAndCSV(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow("x", 1)
	tb.AddRow(3.5, "with,comma")
	text := tb.Text()
	for _, want := range []string{"T", "a", "bb", "x", "3.5", "with,comma", "--"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q in:\n%s", want, text)
		}
	}
	csv := tb.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Errorf("CSV should quote comma cells: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,bb\n") {
		t.Errorf("CSV header wrong: %q", csv)
	}
}

func TestTableCSVQuotesQuotes(t *testing.T) {
	tb := Table{Columns: []string{"c"}}
	tb.AddRow(`say "hi"`)
	if !strings.Contains(tb.CSV(), `"say ""hi"""`) {
		t.Errorf("CSV quote escaping wrong: %q", tb.CSV())
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow("x|y", 1)
	md := tb.Markdown()
	for _, want := range []string{"**T**", "| a | b |", "|---|---|", `x\|y`} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown missing %q in:\n%s", want, md)
		}
	}
}

// Parked renderers: no non-test file calls a Table's CSV or Markdown form
// (the CLIs print Text, and figures -csv prints Figure.CSV), so they left
// the package and wait here beside the tests that pin their output; they
// go for good when a PR has room to delete those tests with them.

// CSV renders the table as CSV with minimal quoting.
func (t Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table, for
// pasting experiment output into documentation.
func (t Table) Markdown() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for _, cell := range cells {
			sb.WriteString(" ")
			sb.WriteString(strings.ReplaceAll(cell, "|", "\\|"))
			sb.WriteString(" |")
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sb.WriteString("|")
	for range t.Columns {
		sb.WriteString("---|")
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
