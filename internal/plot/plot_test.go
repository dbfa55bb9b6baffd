package plot

import (
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	out := Render([]Series{
		{Name: "up", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}},
		{Name: "down", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}},
	}, Options{Width: 20, Height: 5, XLabel: "x", YLabel: "y"})
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "y") {
		t.Error("axis labels missing")
	}
	lines := strings.Split(out, "\n")
	if len(lines) < 8 {
		t.Errorf("canvas too small: %d lines", len(lines))
	}
}

func TestRenderPlacesExtremes(t *testing.T) {
	out := Render([]Series{{Name: "s", X: []float64{0, 10}, Y: []float64{0, 10}}},
		Options{Width: 11, Height: 11})
	rows := strings.Split(out, "\n")
	// Max point at top-right of the canvas, min at bottom-left.
	if rows[0][11] != '*' { // +1 for the left edge character
		t.Errorf("top-right corner = %q", rows[0])
	}
	if rows[10][1] != '*' {
		t.Errorf("bottom-left corner = %q", rows[10])
	}
}

func TestRenderLogScales(t *testing.T) {
	out := Render([]Series{{Name: "dec", X: []float64{1, 10, 100}, Y: []float64{100, 10, 1}}},
		Options{Width: 21, Height: 7, LogX: true, LogY: true})
	// Log-log of a power law is a straight diagonal: 3 canvas markers plus
	// one in the legend.
	if strings.Count(out, "*") != 4 {
		t.Errorf("expected 3 canvas markers + legend:\n%s", out)
	}
}

func TestRenderSkipsInvalid(t *testing.T) {
	out := Render([]Series{{Name: "s", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}}},
		Options{LogX: true, LogY: true})
	if strings.Count(out, "*") != 3 { // 2 canvas markers + legend
		t.Errorf("log scales must drop non-positive points:\n%s", out)
	}
	if got := Render(nil, Options{}); !strings.Contains(got, "no plottable") {
		t.Errorf("empty input: %q", got)
	}
}

func TestDefaultDimensions(t *testing.T) {
	out := Render([]Series{{Name: "s", X: []float64{1}, Y: []float64{1}}}, Options{})
	rows := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 16 canvas rows + axis + legend.
	if len(rows) != 18 {
		t.Errorf("got %d rows", len(rows))
	}
}
