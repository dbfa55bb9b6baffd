package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dft"
)

const tol = 1e-9

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 17, 31, 32, 48, 60, 64, 100, 128, 243, 256, 511, 512} {
		x := randSignal(rng, n)
		want := dft.Transform(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).transformContig(got, Forward)
		if d := maxAbsDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: forward FFT differs from DFT oracle by %g", n, d)
		}
	}
}

func TestInverseMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 3, 8, 15, 16, 27, 64, 81, 128} {
		x := randSignal(rng, n)
		want := dft.Inverse(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).transformContig(got, Inverse)
		if d := maxAbsDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: inverse FFT differs from DFT oracle by %g", n, d)
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16, 21, 64, 100, 256, 1000} {
		x := randSignal(rng, n)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.transformContig(got, Forward)
		p.transformContig(got, Inverse)
		if d := maxAbsDiff(got, x); d > tol*float64(n) {
			t.Errorf("n=%d: inverse(forward(x)) differs from x by %g", n, d)
		}
	}
}

// TestRoundTripProperty is a property-based check over random lengths and
// signals: Inverse∘Forward must be the identity.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, n)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.transformContig(got, Forward)
		p.transformContig(got, Inverse)
		return maxAbsDiff(got, x) <= tol*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestParseval checks the energy identity Σ|x|² == (1/N)Σ|X|².
func TestParseval(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%128 + 1
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, n)
		var ein float64
		for _, v := range x {
			ein += real(v)*real(v) + imag(v)*imag(v)
		}
		NewPlan(n).transformContig(x, Forward)
		var eout float64
		for _, v := range x {
			eout += real(v)*real(v) + imag(v)*imag(v)
		}
		eout /= float64(n)
		return math.Abs(ein-eout) <= tol*float64(n)*(1+ein)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLinearity: FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
func TestLinearity(t *testing.T) {
	f := func(seed int64, nRaw uint8, ar, br float64) bool {
		n := int(nRaw)%64 + 2
		if math.IsNaN(ar) || math.IsInf(ar, 0) || math.Abs(ar) > 1e3 {
			ar = 1.5
		}
		if math.IsNaN(br) || math.IsInf(br, 0) || math.Abs(br) > 1e3 {
			br = -0.5
		}
		a, b := complex(ar, 0), complex(br, 0)
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, n)
		y := randSignal(rng, n)
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		p := NewPlan(n)
		p.transformContig(comb, Forward)
		p.transformContig(x, Forward)
		p.transformContig(y, Forward)
		for i := range x {
			x[i] = a*x[i] + b*y[i]
		}
		return maxAbsDiff(comb, x) <= 1e-7*float64(n)*(1+math.Abs(ar)+math.Abs(br))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a unit impulse at 0 is all ones; at position p it is a pure
	// phase ramp exp(-2πi kp/N).
	n := 16
	for p := 0; p < n; p++ {
		x := make([]complex128, n)
		x[p] = 1
		NewPlan(n).transformContig(x, Forward)
		for k := 0; k < n; k++ {
			ang := -2 * math.Pi * float64(k) * float64(p) / float64(n)
			want := complex(math.Cos(ang), math.Sin(ang))
			if cmplx.Abs(x[k]-want) > tol {
				t.Fatalf("impulse at %d: bin %d = %v, want %v", p, k, x[k], want)
			}
		}
	}
}

func TestConstantSignal(t *testing.T) {
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2.5
	}
	NewPlan(n).transformContig(x, Forward)
	if cmplx.Abs(x[0]-complex(2.5*float64(n), 0)) > tol {
		t.Errorf("DC bin = %v, want %v", x[0], 2.5*float64(n))
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > tol {
			t.Errorf("bin %d = %v, want 0", k, x[k])
		}
	}
}

func TestTransformBatchContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, batch := 32, 7
	data := randSignal(rng, n*batch)
	want := make([]complex128, len(data))
	for b := 0; b < batch; b++ {
		seg := append([]complex128(nil), data[b*n:(b+1)*n]...)
		NewPlan(n).transformContig(seg, Forward)
		copy(want[b*n:], seg)
	}
	NewPlan(n).TransformBatch(data, 1, n, batch, Forward)
	if d := maxAbsDiff(data, want); d > tol*float64(n) {
		t.Errorf("contiguous batch differs by %g", d)
	}
}

func TestTransformBatchStrided(t *testing.T) {
	// A strided batch along the columns of a row-major rows×cols matrix must
	// equal per-column transforms.
	rng := rand.New(rand.NewSource(5))
	rows, cols := 16, 5
	data := randSignal(rng, rows*cols)
	want := append([]complex128(nil), data...)
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = want[r*cols+c]
		}
		NewPlan(rows).transformContig(col, Forward)
		for r := 0; r < rows; r++ {
			want[r*cols+c] = col[r]
		}
	}
	NewPlan(rows).TransformBatch(data, cols, 1, cols, Forward)
	if d := maxAbsDiff(data, want); d > tol*float64(rows) {
		t.Errorf("strided batch differs by %g", d)
	}
}

func TestTransform2DMatchesSeparateAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n0, n1 := 8, 12
	data := randSignal(rng, n0*n1)
	want := append([]complex128(nil), data...)
	// Oracle: DFT along rows then columns.
	for r := 0; r < n0; r++ {
		copy(want[r*n1:(r+1)*n1], dft.Transform(want[r*n1:(r+1)*n1]))
	}
	col := make([]complex128, n0)
	for c := 0; c < n1; c++ {
		for r := 0; r < n0; r++ {
			col[r] = want[r*n1+c]
		}
		res := dft.Transform(col)
		for r := 0; r < n0; r++ {
			want[r*n1+c] = res[r]
		}
	}
	Transform2D(data, n0, n1, Forward)
	if d := maxAbsDiff(data, want); d > tol*float64(n0*n1) {
		t.Errorf("2-D transform differs from oracle by %g", d)
	}
}

func TestTransform3DMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n0, n1, n2 := 4, 6, 5
	data := randSignal(rng, n0*n1*n2)
	want := dft.Transform3D(data, n0, n1, n2)
	Transform3D(data, n0, n1, n2, Forward)
	if d := maxAbsDiff(data, want); d > tol*float64(n0*n1*n2) {
		t.Errorf("3-D transform differs from oracle by %g", d)
	}
}

func TestTransform3DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n0, n1, n2 := 8, 4, 16
	data := randSignal(rng, n0*n1*n2)
	orig := append([]complex128(nil), data...)
	Transform3D(data, n0, n1, n2, Forward)
	Transform3D(data, n0, n1, n2, Inverse)
	if d := maxAbsDiff(data, orig); d > tol*float64(n0*n1*n2) {
		t.Errorf("3-D round trip differs by %g", d)
	}
}

func TestPlanCacheReuse(t *testing.T) {
	if NewPlan(64) != NewPlan(64) {
		t.Error("plan cache did not reuse the plan for n=64")
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("NewPlan(0)", func() { NewPlan(0) })
	assertPanics("bad stride", func() { NewPlan(4).TransformBatch(make([]complex128, 4), 0, 4, 1, Forward) })
}

// One contiguous power-of-two line, its input restored every iteration.
func BenchmarkFFTPow2(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(itoa(n), func(b *testing.B) {
			x0 := randSignal(rand.New(rand.NewSource(9)), n)
			x := make([]complex128, n)
			p := NewPlan(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, x0)
				p.transformContig(x, Forward)
			}
			requireFinite(b, x)
		})
	}
}

// Bluestein lines: one 1000-point line (a group of its own, two lanes that are
// the same line) and a batch of 16 contiguous 100-point lines, which run in
// groups across the rows of the convolution buffer (ns/line beside ns/op).
// Both inputs are restored every iteration, as in BenchmarkKernelInverse:
// repeated forward transforms would overflow them to NaN within a few hundred
// calls.
func BenchmarkFFTBluestein(b *testing.B) {
	b.Run("1000", func(b *testing.B) {
		x0 := randSignal(rand.New(rand.NewSource(10)), 1000)
		x := make([]complex128, len(x0))
		p := NewPlan(1000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(x, x0)
			p.transformContig(x, Forward)
		}
		requireFinite(b, x)
	})
	b.Run("100x16", func(b *testing.B) {
		const n, batch = 100, 16
		x0 := randSignal(rand.New(rand.NewSource(10)), n*batch)
		x := make([]complex128, n*batch)
		p := NewPlan(n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(x, x0)
			p.TransformBatch(x, 1, n, batch, Forward)
		}
		requireFinite(b, x)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/line")
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
