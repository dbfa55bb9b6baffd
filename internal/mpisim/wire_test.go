package mpisim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWirePrecisionSizes(t *testing.T) {
	cases := []struct {
		w      WirePrecision
		name   string
		cbytes int
		eps    float64
	}{
		{WireFp64, "fp64", 16, 0x1p-53},
		{WireFp32, "fp32", 8, 0x1p-24},
		{WireFp16, "fp16", 4, 0x1p-11},
	}
	for _, c := range cases {
		if got := c.w.String(); got != c.name {
			t.Errorf("%v.String() = %q, want %q", c.w, got, c.name)
		}
		if got := c.w.ComplexBytes(); got != c.cbytes {
			t.Errorf("%s.ComplexBytes() = %d, want %d", c.name, got, c.cbytes)
		}
		if got := c.w.RealBytes(); got != c.cbytes/2 {
			t.Errorf("%s.RealBytes() = %d, want %d", c.name, got, c.cbytes/2)
		}
		if got := c.w.Eps(); got != c.eps {
			t.Errorf("%s.Eps() = %g, want %g", c.name, got, c.eps)
		}
	}
	if WireFp64.Tiny() != 0 {
		t.Errorf("fp64 Tiny = %g, want 0", WireFp64.Tiny())
	}
}

// TestUnknownWirePrecision: a value that names no wire format prints as
// itself, and pricing or checksumming it panics with that name instead of
// running as fp64.
func TestUnknownWirePrecision(t *testing.T) {
	w := WirePrecision(3)
	if got := w.String(); got != "wire(3)" {
		t.Errorf("WirePrecision(3).String() = %q, want \"wire(3)\"", got)
	}
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"ComplexBytes", func() { w.ComplexBytes() }},
		{"RealBytes", func() { w.RealBytes() }},
		{"Eps", func() { w.Eps() }},
		{"Tiny", func() { w.Tiny() }},
		{"Buf.Bytes", func() { (Buf{N: 10, Wire: w}).Bytes() }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "wire(3)") {
					t.Errorf("%s on wire(3): panic %q, want one naming wire(3)", c.name, msg)
				}
			}()
			c.f()
		}()
	}
}

func TestQuantizeFp64Identity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := make([]complex128, 256)
	for i := range d {
		d[i] = complex(rng.NormFloat64()*math.Exp(rng.NormFloat64()*20), rng.NormFloat64())
	}
	orig := append([]complex128(nil), d...)
	WireFp64.QuantizeComplex(d)
	for i := range d {
		if d[i] != orig[i] {
			t.Fatalf("fp64 quantize changed element %d: %v -> %v", i, orig[i], d[i])
		}
	}
}

// TestQuantize32 checks the fp32 grid against the native float32 conversion
// and the saturation of out-of-range values.
func TestQuantize32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64() * math.Exp(rng.NormFloat64()*30)
		got := quantize32(v)
		if want := float64(float32(v)); !math.IsInf(want, 0) && got != want {
			t.Fatalf("quantize32(%g) = %g, want %g", v, got, want)
		}
	}
	// A finite double beyond float32 range must saturate, not overflow.
	for _, v := range []float64{1e39, -1e39, math.MaxFloat64} {
		got := quantize32(v)
		if math.IsInf(got, 0) {
			t.Errorf("quantize32(%g) overflowed to %g", v, got)
		}
		if math.Abs(got) != math.MaxFloat32 {
			t.Errorf("quantize32(%g) = %g, want ±MaxFloat32", v, got)
		}
	}
	if !math.IsInf(quantize32(math.Inf(1)), 1) {
		t.Error("quantize32 must pass a true +Inf through")
	}
}

// TestQuantize16 checks the half-precision grid: exact on representable
// values, round-to-nearest-even between them, within-eps relative error in
// the normal range, saturation at the top, and the subnormal fixed grid.
func TestQuantize16(t *testing.T) {
	// Exactly representable halves survive unchanged.
	for _, v := range []float64{0, 1, -1, 0.5, 1024, 65504, 0x1p-14, 0x1p-24, -0x1p-24} {
		if got := quantize16(v); got != v {
			t.Errorf("quantize16(%g) = %g, want exact", v, got)
		}
	}
	// Ties round to even: 1 + 2⁻¹¹ is exactly between 1 and 1+2⁻¹⁰.
	if got := quantize16(1 + 0x1p-11); got != 1 {
		t.Errorf("quantize16(1+2^-11) = %g, want 1 (ties to even)", got)
	}
	if got := quantize16(1 + 3*0x1p-11); got != 1+2*0x1p-10 {
		t.Errorf("quantize16(1+3·2^-11) = %g, want 1+2^-9 (ties to even)", got)
	}
	// Relative error ≤ eps in the normal range.
	rng := rand.New(rand.NewSource(7))
	eps := WireFp16.Eps()
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64() * math.Exp2(float64(rng.Intn(29)-14)) // spread across the normal range
		if math.Abs(v) < 0x1p-14 || math.Abs(v) >= 65504 {
			continue
		}
		got := quantize16(v)
		if rel := math.Abs(got-v) / math.Abs(v); rel > eps {
			t.Fatalf("quantize16(%g) relative error %g > eps %g", v, rel, eps)
		}
	}
	// Saturation instead of overflow.
	for _, v := range []float64{65520, 1e6, -1e6, math.MaxFloat64} {
		if got := quantize16(v); math.Abs(got) != 65504 {
			t.Errorf("quantize16(%g) = %g, want ±65504", v, got)
		}
	}
	// 65519.999 rounds down to the largest half, not up past the boundary.
	if got := quantize16(65519); got != 65504 {
		t.Errorf("quantize16(65519) = %g, want 65504", got)
	}
	// Subnormals land on the 2⁻²⁴ grid with absolute error ≤ Tiny.
	tiny := WireFp16.Tiny()
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 0x1p-14
		got := quantize16(v)
		if math.Abs(got-v) > tiny {
			t.Fatalf("quantize16(%g) = %g, abs error %g > tiny %g", v, got, math.Abs(got-v), tiny)
		}
		if got != math.RoundToEven(got*0x1p24)*0x1p-24 {
			t.Fatalf("quantize16(%g) = %g not on the subnormal grid", v, got)
		}
	}
}

// TestBufBytesWire: the Buf footprint every transport cost derives from must
// track the wire precision for real and complex payloads, phantom or not.
func TestBufBytesWire(t *testing.T) {
	cplx := make([]complex128, 10)
	reald := make([]float64, 10)
	for _, w := range []WirePrecision{WireFp64, WireFp32, WireFp16} {
		if got := (Buf{Data: cplx, Wire: w}).Bytes(); got != 10*w.ComplexBytes() {
			t.Errorf("%v complex Bytes = %d, want %d", w, got, 10*w.ComplexBytes())
		}
		if got := (Buf{Real: reald, Wire: w}).Bytes(); got != 10*w.RealBytes() {
			t.Errorf("%v real Bytes = %d, want %d", w, got, 10*w.RealBytes())
		}
		if got := (Buf{N: 10, Wire: w}).Bytes(); got != 10*w.ComplexBytes() {
			t.Errorf("%v phantom Bytes = %d, want %d", w, got, 10*w.ComplexBytes())
		}
	}
}
