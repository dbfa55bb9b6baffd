// Package stats provides the small statistics helpers the benchmark harness
// uses to summarize repeated virtual-time measurements.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Gflops converts an operation count and a time to GFLOP/s.
func Gflops(flops float64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return flops / seconds / 1e9
}

// FFTFlops returns the nominal 5·N·log2(N) flop count of a complex 3-D FFT
// of N total points — the figure of merit FFT benchmarks report.
func FFTFlops(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// FormatSeconds renders a duration with engineering units for tables.
func FormatSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.1f ns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.1f µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.3f s", s)
	}
}

// FormatBandwidth renders bytes/second with engineering units.
func FormatBandwidth(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.2f GB/s", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.2f MB/s", b/1e6)
	default:
		return fmt.Sprintf("%.0f B/s", b)
	}
}
