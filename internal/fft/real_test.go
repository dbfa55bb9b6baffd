package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dft"
)

// forward and inverse transform one line through the batched entry points.
func (p *RealPlan) forward(x []float64) ([]complex128, error) {
	spec := make([]complex128, p.SpectrumLen())
	return spec, p.ForwardBatch(x, 1, 0, spec, 1, 0, 1)
}

func (p *RealPlan) inverse(spec []complex128) ([]float64, error) {
	x := make([]float64, p.N())
	return x, p.InverseBatch(spec, 1, 0, x, 1, 0, 1)
}

func TestRealPlanValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7} {
		if _, err := NewRealPlan(n); err == nil {
			t.Errorf("NewRealPlan(%d) should fail", n)
		}
	}
	p, err := NewRealPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 16 || p.SpectrumLen() != 9 {
		t.Errorf("N=%d SpectrumLen=%d", p.N(), p.SpectrumLen())
	}
	if _, err := p.forward(make([]float64, 5)); err == nil {
		t.Error("wrong-length forward input should fail")
	}
	if _, err := p.inverse(make([]complex128, 5)); err == nil {
		t.Error("wrong-length inverse input should fail")
	}
}

func TestRealForwardMatchesComplexDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{2, 4, 6, 8, 16, 30, 64, 100, 256} {
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			cx[i] = complex(x[i], 0)
		}
		want := dft.Transform(cx)
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.forward(x)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= n/2; k++ {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestRealEdgeBinsAreReal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 32
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p, _ := NewRealPlan(n)
	spec, err := p.forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(imag(spec[0])) > 1e-12 || math.Abs(imag(spec[n/2])) > 1e-12 {
		t.Errorf("DC/Nyquist bins not real: %v, %v", spec[0], spec[n/2])
	}
}

func TestRealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{2, 8, 10, 64, 254} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := p.forward(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := p.inverse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: round trip differs at %d: %g vs %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRealRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := (int(nRaw)%100 + 1) * 2
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		p, err := NewRealPlan(n)
		if err != nil {
			return false
		}
		spec, err := p.forward(x)
		if err != nil {
			return false
		}
		back, err := p.inverse(spec)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHalvingMatchesDivision: the divisions by 2 and 2i that splitRows and
// mergeRows spell out on real and imaginary parts give the bits of the
// runtime's z/2 and z/(2i) inside their formulas, for every pairing of signed
// zeros, subnormals, extremes and random values as real and imaginary part,
// each met by several others as the partner row. Magnitudes stay at or below
// MaxFloat64/4, so no sum or product in the formulas overflows.
func TestHalvingMatchesDivision(t *testing.T) {
	big := math.MaxFloat64 / 4
	parts := []float64{0, math.Copysign(0, -1), 1, -1, 0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, big, -big, 0x1.fffffffffffffp-1022}
	rng := rand.New(rand.NewSource(9))
	for range 16 {
		parts = append(parts, rng.NormFloat64()*math.Pow(2, float64(rng.Intn(2000)-1000)))
	}
	var vals []complex128
	for _, re := range parts {
		for _, im := range parts {
			vals = append(vals, complex(re, im))
		}
	}
	bits := func(z complex128) [2]uint64 {
		return [2]uint64{math.Float64bits(real(z)), math.Float64bits(imag(z))}
	}
	conj := func(c complex128) complex128 { return complex(real(c), -imag(c)) }
	const n = 8
	h := n / 2
	p, err := NewRealPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	w := len(vals)
	tile := make([]complex128, h*w)
	spec := make([]complex128, (h+1)*w)
	for _, off := range []int{1, len(parts), len(parts) + 1, 7*len(parts) + 3} {
		for j := range h {
			for l := range w {
				tile[j*w+l] = vals[(l+j*off)%w]
			}
		}
		p.splitRows(tile, w, spec, 0, 1, h+1)
		for l := range w {
			for k := 0; k <= h; k++ {
				zk, znk := tile[k%h*w+l], tile[(h-k)%h*w+l]
				want := (zk+conj(znk))/2 + p.tw[k]*((zk-conj(znk))/2i)
				if got := spec[l*(h+1)+k]; bits(got) != bits(want) {
					t.Fatalf("offset %d lane %d: split bin %d of %v, %v = %v %x, division %v %x", off, l, k, zk, znk, got, bits(got), want, bits(want))
				}
			}
		}
		for l := range w {
			for k := 0; k <= h; k++ {
				spec[l*(h+1)+k] = vals[(l+k*off)%w]
			}
		}
		p.mergeRows(spec, 0, 1, h+1, tile, w)
		for l := range w {
			for k := range h {
				sk, snk := spec[l*(h+1)+k], conj(spec[l*(h+1)+h-k])
				want := (sk+snk)/2 + complex(0, 1)*((sk-snk)/2*conj(p.tw[k]))
				if got := tile[k*w+l]; bits(got) != bits(want) {
					t.Fatalf("offset %d lane %d: merged %d of %v, %v = %v %x, division %v %x", off, l, k, sk, snk, got, bits(got), want, bits(want))
				}
			}
		}
	}
}

func BenchmarkRealFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	p, _ := NewRealPlan(n)
	b.ReportAllocs()
	b.ResetTimer()
	var spec []complex128
	for i := 0; i < b.N; i++ {
		var err error
		if spec, err = p.forward(x); err != nil {
			b.Fatal(err)
		}
	}
	requireFinite(b, spec)
}
