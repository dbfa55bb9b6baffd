package mpisim

import (
	"math"
	"strconv"
)

// Wire precision: the element width payloads are compressed to on the wire.
// The transform itself computes in double precision everywhere; a compressed
// exchange down-converts each element as it is packed and up-converts it on
// unpack, so only the bytes in flight (and the PCIe staging copies of
// non-GPU-aware transports) shrink. The simulator models the numerics of the
// round trip exactly: a packed element is rounded to the wire format's grid
// (round-to-nearest-even) before it leaves the sender, which is bit-identical
// to down-converting and up-converting for real.
//
// WireFp64 — the zero value — ships full doubles and is bit-identical, in
// both payloads and virtual time, to a build without the wire-precision
// layer.

// WirePrecision selects the on-wire element format of a payload.
type WirePrecision uint8

const (
	// WireFp64 ships full double precision (16 bytes per complex element,
	// 8 per real element). The default; numerically exact.
	WireFp64 WirePrecision = iota
	// WireFp32 ships IEEE-754 single precision (8 bytes per complex element),
	// halving wire and staging bytes at ~6e-8 relative rounding per element.
	WireFp32
	// WireFp16 ships IEEE-754 half precision (4 bytes per complex element),
	// quartering the bytes at ~4.9e-4 relative rounding per element. Values
	// beyond the fp16 range (|v| ≥ 65520) saturate to ±65504.
	WireFp16
)

func (w WirePrecision) String() string {
	switch w {
	case WireFp64:
		return "fp64"
	case WireFp32:
		return "fp32"
	case WireFp16:
		return "fp16"
	}
	return "wire(" + strconv.Itoa(int(w)) + ")"
}

// unknown panics on a value that names no wire format: pricing or
// checksumming it as any one of them would run silently at the wrong width.
func (w WirePrecision) unknown() {
	panic("mpisim: unknown wire precision " + w.String())
}

// wireComplexBytes is ComplexBytes by precision: a table, not a switch, so
// that ComplexBytes stays inlinable in the per-block pricing loops.
var wireComplexBytes = [...]int{WireFp64: 16, WireFp32: 8, WireFp16: 4}

// ComplexBytes reports the on-wire size of one complex element. Every
// transport, staging and checksum cost derives from it.
func (w WirePrecision) ComplexBytes() int {
	if int(w) >= len(wireComplexBytes) {
		w.unknown()
	}
	return wireComplexBytes[w]
}

// RealBytes reports the on-wire size of one real element.
func (w WirePrecision) RealBytes() int { return w.ComplexBytes() / 2 }

// Eps returns the unit roundoff of the wire format (half an ulp at 1.0): the
// worst-case relative error one down-convert introduces for values in the
// format's normal range. It anchors the tolerance of every checksum compared
// across a compression boundary.
func (w WirePrecision) Eps() float64 {
	switch w {
	case WireFp64:
		return 0x1p-53
	case WireFp32:
		return 0x1p-24
	case WireFp16:
		return 0x1p-11
	}
	w.unknown()
	return 0
}

// Tiny returns the largest absolute rounding error the wire format can
// introduce for values in its subnormal range (half the smallest subnormal
// step), where the relative bound of Eps does not apply. Zero for fp64 (the
// compute format: no conversion happens).
func (w WirePrecision) Tiny() float64 {
	switch w {
	case WireFp64:
		return 0
	case WireFp32:
		return 0x1p-150
	case WireFp16:
		return 0x1p-25
	}
	w.unknown()
	return 0
}

// QuantizeComplex rounds every element of d to the wire grid in place —
// exactly the value a receiver would observe after a down-convert/up-convert
// round trip. A no-op for WireFp64.
func (w WirePrecision) QuantizeComplex(d []complex128) {
	switch w {
	case WireFp32:
		for i, v := range d {
			d[i] = complex(quantize32(real(v)), quantize32(imag(v)))
		}
	case WireFp16:
		for i, v := range d {
			d[i] = complex(quantize16(real(v)), quantize16(imag(v)))
		}
	}
}

// QuantizeReal is QuantizeComplex over a real payload.
func (w WirePrecision) QuantizeReal(d []float64) {
	switch w {
	case WireFp32:
		for i, v := range d {
			d[i] = quantize32(v)
		}
	case WireFp16:
		for i, v := range d {
			d[i] = quantize16(v)
		}
	}
}

// quantize32 rounds v to the nearest float32 (ties to even), saturating at
// the format's largest finite value so a compressed payload never turns a
// finite element into an infinity.
func quantize32(v float64) float64 {
	f := float32(v)
	if math.IsInf(float64(f), 0) && !math.IsInf(v, 0) {
		return math.Copysign(math.MaxFloat32, v)
	}
	return float64(f)
}

// quantize16 rounds v to the nearest IEEE-754 half (ties to even), again
// saturating instead of overflowing. 65520 is the rounding boundary above
// which a half overflows.
func quantize16(v float64) float64 {
	if v == 0 || math.IsNaN(v) {
		return v
	}
	a := math.Abs(v)
	if a >= 65520 {
		return math.Copysign(65504, v)
	}
	if a < 0x1p-14 {
		// Subnormal range: fixed grid of step 2⁻²⁴.
		return math.RoundToEven(v*0x1p24) * 0x1p-24
	}
	// Normal range: 10 mantissa bits, ulp = 2^(exp-10).
	exp := math.Ilogb(a)
	scale := math.Ldexp(1, 10-exp)
	return math.RoundToEven(v*scale) / scale
}
