package bench

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/plot"
	"repro/internal/stats"
)

// Result is what an experiment returns, and what fftsim and fftplan print:
// the sections, in order, and the named numbers the paper's shape claims are
// checked against (e.g. "gpu_aware_penalty", "batch_speedup").
type Result struct {
	Sections []Section
	Scalars  map[string]float64
}

// Section is one table with the lines around it. RenderBody prints the lead
// lines, the table (the Header line, none when Header is empty, then the
// Rows), the plot (none when Plot is empty) and the notes, in that order; an
// empty line prints a blank line.
type Section struct {
	Lead     []string
	Header   []string
	Rows     [][]Cell
	Plot     []plot.Series
	PlotOpts plot.Options
	Notes    []string
}

// Cell is one table entry: the value in base units (seconds, bytes/s, a
// fraction or a ratio; 0 for a label) and the exact text printed for it.
type Cell struct {
	V    float64
	Text string
}

// Render writes r the way fftbench prints it: the "== id: title ==" banner,
// the body (RenderBody), and a closing blank line that separates experiments.
func Render(w io.Writer, e Experiment, r Result) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
	RenderBody(&b, r) // a bytes.Buffer takes every write
	b.WriteByte('\n')
	_, err := w.Write(b.Bytes())
	return err
}

// RenderBody writes r's sections alone, the way a command that prints one
// Result (fftsim, fftplan) prints it.
func RenderBody(w io.Writer, r Result) error {
	var b bytes.Buffer
	for _, s := range r.Sections {
		for _, l := range s.Lead {
			fmt.Fprintln(&b, l)
		}
		if len(s.Header)+len(s.Rows) > 0 {
			tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
			if len(s.Header) > 0 {
				fmt.Fprintln(tw, strings.Join(s.Header, "\t"))
			}
			for _, row := range s.Rows {
				text := make([]string, len(row))
				for i, c := range row {
					text[i] = c.Text
				}
				fmt.Fprintln(tw, strings.Join(text, "\t"))
			}
			tw.Flush()
		}
		if len(s.Plot) > 0 {
			b.WriteString(plot.Render(s.Plot, s.PlotOpts))
		}
		for _, l := range s.Notes {
			fmt.Fprintln(&b, l)
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// Cell constructors, one per printed format.

func label(s string) Cell               { return Cell{Text: s} }
func count(n int) Cell                  { return Cell{V: float64(n), Text: fmt.Sprint(n)} }
func secs(t float64) Cell               { return Cell{V: t, Text: stats.FormatSeconds(t)} }
func micros(t float64) Cell             { return Cell{V: t, Text: fmt.Sprintf("%.1fµs", t*1e6)} }
func pct(x float64) Cell                { return Cell{V: x, Text: fmtPct(x)} }
func signedPct(x float64) Cell          { return Cell{V: x, Text: fmt.Sprintf("%+.2f%%", x*100)} }
func num(x float64, format string) Cell { return Cell{V: x, Text: fmt.Sprintf(format, x)} }

func fmtPct(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }

// labels is a row of label cells.
func labels(ss ...string) []Cell {
	row := make([]Cell, len(ss))
	for i, s := range ss {
		row[i] = label(s)
	}
	return row
}
