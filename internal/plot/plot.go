// Package plot renders small ASCII charts for the benchmark harness: the
// paper's scaling figures are log-log line plots, and a terminal sketch of
// the same series makes shape regressions (lost crossovers, broken scaling)
// visible at a glance in fftbench output.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Options controls the canvas.
type Options struct {
	Width, Height int  // character cell grid (default 60×16)
	LogX, LogY    bool // logarithmic axes (the paper's figures are log-log)
	YLabel        string
	XLabel        string
}

var defaultMarkers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Render draws the series onto a text canvas.
func Render(series []Series, opts Options) string {
	if opts.Width <= 0 {
		opts.Width = 60
	}
	if opts.Height <= 0 {
		opts.Height = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tx := func(v float64) float64 {
		if opts.LogX {
			return math.Log10(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if opts.LogY {
			return math.Log10(v)
		}
		return v
	}
	any := false
	for _, s := range series {
		for i := range s.X {
			if invalid(s.X[i], opts.LogX) || invalid(s.Y[i], opts.LogY) {
				continue
			}
			any = true
			minX = math.Min(minX, tx(s.X[i]))
			maxX = math.Max(maxX, tx(s.X[i]))
			minY = math.Min(minY, ty(s.Y[i]))
			maxY = math.Max(maxY, ty(s.Y[i]))
		}
	}
	if !any {
		return "(no plottable points)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, opts.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", opts.Width))
	}
	for si, s := range series {
		m := defaultMarkers[si%len(defaultMarkers)]
		for i := range s.X {
			if invalid(s.X[i], opts.LogX) || invalid(s.Y[i], opts.LogY) {
				continue
			}
			col := int(math.Round((tx(s.X[i]) - minX) / (maxX - minX) * float64(opts.Width-1)))
			row := opts.Height - 1 - int(math.Round((ty(s.Y[i])-minY)/(maxY-minY)*float64(opts.Height-1)))
			if col >= 0 && col < opts.Width && row >= 0 && row < opts.Height {
				grid[row][col] = m
			}
		}
	}

	var b strings.Builder
	if opts.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", opts.YLabel)
	}
	for r, line := range grid {
		edge := "|"
		if r == opts.Height-1 {
			edge = "+"
		}
		fmt.Fprintf(&b, "%s%s\n", edge, string(line))
	}
	fmt.Fprintf(&b, " %s\n", strings.Repeat("-", opts.Width))
	if opts.XLabel != "" {
		fmt.Fprintf(&b, " %s\n", opts.XLabel)
	}
	// Legend.
	for si, s := range series {
		fmt.Fprintf(&b, " %c %s\n", defaultMarkers[si%len(defaultMarkers)], s.Name)
	}
	return b.String()
}

func invalid(v float64, logScale bool) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return true
	}
	return logScale && v <= 0
}
