package mesh

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/fft"
	"repro/internal/tensor"
)

func cubeDomain(n int) Domain {
	return Domain{L: [3]float64{1, 1, 1}, Global: [3]int{n, n, n}}
}

func TestCellWrapsPeriodically(t *testing.T) {
	d := cubeDomain(8)
	if c := d.Cell([3]float64{0, 0, 0}); c != [3]int{0, 0, 0} {
		t.Errorf("Cell(origin) = %v", c)
	}
	// 0.99 is closest to cell 8 ≡ 0 (h = 0.125).
	if c := d.Cell([3]float64{0.99, 0.5, 0.5}); c[0] != 0 {
		t.Errorf("Cell near upper boundary wraps to %d, want 0", c[0])
	}
	if c := d.Cell([3]float64{-0.01, 0.5, 0.5}); c[0] != 0 {
		t.Errorf("Cell just below zero = %d, want 0", c[0])
	}
}

func TestDepositGatherRoundTrip(t *testing.T) {
	d := cubeDomain(4)
	box := tensor.NewBox(0, 0, 0, 4, 4, 4)
	grid := make([]complex128, box.Volume())
	parts := []Particle{{Pos: [3]float64{0.3, 0.55, 0.8}, Q: 2.0}}
	if err := Deposit(grid, box, d, parts); err != nil {
		t.Fatal(err)
	}
	// Total deposited charge × cell volume equals the particle charge.
	var tot complex128
	for _, v := range grid {
		tot += v
	}
	if math.Abs(real(tot)*d.CellVolume()-2.0) > 1e-12 {
		t.Errorf("total charge %g, want 2", real(tot)*d.CellVolume())
	}
	out := make([]float64, 1)
	if err := Gather(grid, box, d, parts, out); err != nil {
		t.Fatal(err)
	}
	if out[0] <= 0 {
		t.Errorf("gathered value %g at particle site should be positive", out[0])
	}
}

func TestDepositRejectsOutsideBox(t *testing.T) {
	d := cubeDomain(8)
	box := tensor.NewBox(0, 0, 0, 4, 8, 8) // half the domain
	grid := make([]complex128, box.Volume())
	err := Deposit(grid, box, d, []Particle{{Pos: [3]float64{0.9, 0.5, 0.5}, Q: 1}})
	if err == nil {
		t.Error("expected error for particle outside local box")
	}
}

func TestFreq(t *testing.T) {
	want := []int{0, 1, 2, 3, 4, -3, -2, -1}
	for i, w := range want {
		if got := Freq(i, 8); got != w {
			t.Errorf("Freq(%d,8) = %d, want %d", i, got, w)
		}
	}
}

// TestPoissonSingleMode: for ρ = cos(2πx/L), ∇²φ = −ρ gives
// φ = cos(2πx/L)/(2π/L)². Verify through the full spectral pipeline.
func TestPoissonSingleMode(t *testing.T) {
	n := 16
	d := cubeDomain(n)
	box := tensor.NewBox(0, 0, 0, n, n, n)
	rho := make([]complex128, box.Volume())
	for i0 := 0; i0 < n; i0++ {
		x := float64(i0) / float64(n)
		v := math.Cos(2 * math.Pi * x)
		for i1 := 0; i1 < n; i1++ {
			for i2 := 0; i2 < n; i2++ {
				rho[box.Index(i0, i1, i2)] = complex(v, 0)
			}
		}
	}
	fft.Transform3D(rho, n, n, n, fft.Forward)
	PoissonMultiply(rho, box, d)
	fft.Transform3D(rho, n, n, n, fft.Inverse)
	k := 2 * math.Pi
	for i0 := 0; i0 < n; i0++ {
		x := float64(i0) / float64(n)
		want := math.Cos(2*math.Pi*x) / (k * k)
		got := rho[box.Index(i0, 0, 0)]
		if cmplx.Abs(got-complex(want, 0)) > 1e-9 {
			t.Fatalf("φ(%g) = %v, want %g", x, got, want)
		}
	}
}

// TestGradientSingleMode: E = −∂φ/∂x of φ = sin(2πx) is −2π·cos(2πx).
func TestGradientSingleMode(t *testing.T) {
	n := 16
	d := cubeDomain(n)
	box := tensor.NewBox(0, 0, 0, n, n, n)
	phi := make([]complex128, box.Volume())
	for i0 := 0; i0 < n; i0++ {
		x := float64(i0) / float64(n)
		v := math.Sin(2 * math.Pi * x)
		for i1 := 0; i1 < n; i1++ {
			for i2 := 0; i2 < n; i2++ {
				phi[box.Index(i0, i1, i2)] = complex(v, 0)
			}
		}
	}
	fft.Transform3D(phi, n, n, n, fft.Forward)
	e := GradientMultiply(phi, box, d, 0)
	fft.Transform3D(e, n, n, n, fft.Inverse)
	for i0 := 0; i0 < n; i0++ {
		x := float64(i0) / float64(n)
		want := -2 * math.Pi * math.Cos(2*math.Pi*x)
		got := e[box.Index(i0, 5, 7)]
		if cmplx.Abs(got-complex(want, 0)) > 1e-9 {
			t.Fatalf("E(%g) = %v, want %g", x, got, want)
		}
	}
}

func TestPoissonRemovesMeanMode(t *testing.T) {
	n := 8
	d := cubeDomain(n)
	box := tensor.NewBox(0, 0, 0, n, n, n)
	spec := make([]complex128, box.Volume())
	for i := range spec {
		spec[i] = 1
	}
	PoissonMultiply(spec, box, d)
	if spec[box.Index(0, 0, 0)] != 0 {
		t.Error("zero mode not removed")
	}
}

func TestGradientZeroesNyquist(t *testing.T) {
	n := 8
	d := cubeDomain(n)
	box := tensor.NewBox(0, 0, 0, n, n, n)
	spec := make([]complex128, box.Volume())
	for i := range spec {
		spec[i] = 1
	}
	out := GradientMultiply(spec, box, d, 1)
	if out[box.Index(0, n/2, 0)] != 0 {
		t.Error("Nyquist mode not zeroed")
	}
	if out[box.Index(0, 1, 0)] == 0 {
		t.Error("non-Nyquist mode unexpectedly zeroed")
	}
}

func TestGatherLengthMismatch(t *testing.T) {
	d := cubeDomain(4)
	box := tensor.NewBox(0, 0, 0, 4, 4, 4)
	if err := Gather(make([]complex128, 64), box, d, []Particle{{}}, nil); err == nil {
		t.Error("expected error for mismatched output length")
	}
}
