package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Mean(xs) != 2.8 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Max(xs) != 5 {
		t.Errorf("Max = %g", Max(xs))
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input helpers should return 0")
	}
}

func TestMaxMedianBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		// Max is the end of the sorted sample, the median below it.
		s := slices.Clone(xs)
		slices.Sort(s)
		med := s[len(s)/2]
		return Max(xs) == s[len(s)-1] && med <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGflops(t *testing.T) {
	if Gflops(2e9, 1) != 2 {
		t.Errorf("Gflops = %g", Gflops(2e9, 1))
	}
	if Gflops(1, 0) != 0 {
		t.Error("zero time should yield 0")
	}
}

func TestFFTFlops(t *testing.T) {
	n := 512 * 512 * 512
	want := 5 * float64(n) * 27
	if math.Abs(FFTFlops(n)-want) > 1 {
		t.Errorf("FFTFlops = %g, want %g", FFTFlops(n), want)
	}
	if FFTFlops(1) != 0 {
		t.Error("FFTFlops(1) should be 0")
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		4.2e-8:  "ns",
		1.5e-5:  "µs",
		2.3e-3:  "ms",
		0.123:   "ms",
		1.5:     "s",
		97.0341: "s",
	}
	for in, want := range cases {
		if got := FormatSeconds(in); !strings.Contains(got, want) {
			t.Errorf("FormatSeconds(%g) = %q, want unit %q", in, got, want)
		}
	}
	if got := FormatBandwidth(23.5e9); !strings.Contains(got, "GB/s") {
		t.Errorf("FormatBandwidth = %q", got)
	}
	if got := FormatBandwidth(5e6); !strings.Contains(got, "MB/s") {
		t.Errorf("FormatBandwidth = %q", got)
	}
	if got := FormatBandwidth(100); !strings.Contains(got, "B/s") {
		t.Errorf("FormatBandwidth = %q", got)
	}
}
