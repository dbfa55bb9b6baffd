package fft

import "math"

// Hard-coded codelets for n <= 32 — the leaf sizes of every Bluestein
// sub-transform and the short axes of small simulated grids. They take
// natural-order input to natural-order output with no bit-reversal pass and
// no per-plan tables: everything is unrolled decimation-in-time with inline
// constants (the 16- and 32-point combine twiddles live in tiny package
// globals, initialised once for the process). An output scaling can be fused
// into the final combine, so the inverse 1/N never costs a separate sweep.

// maxCodelet is the largest length served by the codelets.
const maxCodelet = 32

// sqrt1_2 is cos(π/4) = sin(π/4), the only irrational the 8-point butterfly
// needs.
const sqrt1_2 = 0.70710678118654752440084436210485

// w16 and w32 hold the combine twiddles W_16^k (k<8) and W_32^k (k<16) per
// direction: index 0 forward, 1 inverse.
var w16 [2][8]complex128
var w32 [2][16]complex128

func init() {
	for d := 0; d < 2; d++ {
		sign := -1.0
		if d == 1 {
			sign = 1.0
		}
		for k := 0; k < 8; k++ {
			w16[d][k] = cis(sign * 2 * math.Pi * float64(k) / 16)
		}
		for k := 0; k < 16; k++ {
			w32[d][k] = cis(sign * 2 * math.Pi * float64(k) / 32)
		}
	}
}

// codelet dispatches d (whose length must be a power of two <= 32) to the
// unrolled transform, scaling every output by scale.
func codelet(d []complex128, fwd bool, scale float64) {
	switch len(d) {
	case 1:
		if scale != 1 {
			d[0] *= complex(scale, 0)
		}
	case 2:
		fft2(d, scale)
	case 4:
		fft4(d, fwd, scale)
	case 8:
		fft8(d, fwd, scale)
	case 16:
		fft16(d, fwd, scale)
	case 32:
		fft32(d, fwd, scale)
	default:
		panic("fft: internal: codelet length out of range")
	}
}

// rotMI multiplies by -i (forward) or +i (inverse): the W_4^1 twiddle.
func rotMI(v complex128, fwd bool) complex128 {
	if fwd {
		return complex(imag(v), -real(v))
	}
	return complex(-imag(v), real(v))
}

func fft2(d []complex128, scale float64) {
	a, b := d[0], d[1]
	if scale != 1 {
		cs := complex(scale, 0)
		d[0] = (a + b) * cs
		d[1] = (a - b) * cs
		return
	}
	d[0] = a + b
	d[1] = a - b
}

func fft4(d []complex128, fwd bool, scale float64) {
	e0 := d[0] + d[2]
	e1 := d[0] - d[2]
	o0 := d[1] + d[3]
	o1 := rotMI(d[1]-d[3], fwd)
	if scale != 1 {
		cs := complex(scale, 0)
		d[0] = (e0 + o0) * cs
		d[1] = (e1 + o1) * cs
		d[2] = (e0 - o0) * cs
		d[3] = (e1 - o1) * cs
		return
	}
	d[0] = e0 + o0
	d[1] = e1 + o1
	d[2] = e0 - o0
	d[3] = e1 - o1
}

func fft8(d []complex128, fwd bool, scale float64) {
	// 4-point DFT of the even samples (d0, d2, d4, d6).
	ta := d[0] + d[4]
	tb := d[0] - d[4]
	tc := d[2] + d[6]
	td := rotMI(d[2]-d[6], fwd)
	e0 := ta + tc
	e1 := tb + td
	e2 := ta - tc
	e3 := tb - td
	// 4-point DFT of the odd samples (d1, d3, d5, d7).
	ua := d[1] + d[5]
	ub := d[1] - d[5]
	uc := d[3] + d[7]
	ud := rotMI(d[3]-d[7], fwd)
	o0 := ua + uc
	o1 := ub + ud
	o2 := ua - uc
	o3 := ub - ud
	// Twiddle the odd spectrum: o_k *= W_8^k.
	const h = sqrt1_2
	if fwd {
		o1 = complex(h*(real(o1)+imag(o1)), h*(imag(o1)-real(o1)))  // ·h(1-i)
		o2 = complex(imag(o2), -real(o2))                           // ·(-i)
		o3 = complex(h*(imag(o3)-real(o3)), -h*(real(o3)+imag(o3))) // ·-h(1+i)
	} else {
		o1 = complex(h*(real(o1)-imag(o1)), h*(imag(o1)+real(o1)))  // ·h(1+i)
		o2 = complex(-imag(o2), real(o2))                           // ·(+i)
		o3 = complex(-h*(real(o3)+imag(o3)), h*(real(o3)-imag(o3))) // ·h(-1+i)
	}
	if scale != 1 {
		cs := complex(scale, 0)
		d[0] = (e0 + o0) * cs
		d[1] = (e1 + o1) * cs
		d[2] = (e2 + o2) * cs
		d[3] = (e3 + o3) * cs
		d[4] = (e0 - o0) * cs
		d[5] = (e1 - o1) * cs
		d[6] = (e2 - o2) * cs
		d[7] = (e3 - o3) * cs
		return
	}
	d[0] = e0 + o0
	d[1] = e1 + o1
	d[2] = e2 + o2
	d[3] = e3 + o3
	d[4] = e0 - o0
	d[5] = e1 - o1
	d[6] = e2 - o2
	d[7] = e3 - o3
}

func fft16(d []complex128, fwd bool, scale float64) {
	var ev, od [8]complex128
	for i := 0; i < 8; i++ {
		ev[i] = d[2*i]
		od[i] = d[2*i+1]
	}
	fft8(ev[:], fwd, 1)
	fft8(od[:], fwd, 1)
	tw := &w16[0]
	if !fwd {
		tw = &w16[1]
	}
	if scale != 1 {
		cs := complex(scale, 0)
		for k := 0; k < 8; k++ {
			t := od[k] * tw[k]
			d[k] = (ev[k] + t) * cs
			d[k+8] = (ev[k] - t) * cs
		}
		return
	}
	for k := 0; k < 8; k++ {
		t := od[k] * tw[k]
		d[k] = ev[k] + t
		d[k+8] = ev[k] - t
	}
}

func fft32(d []complex128, fwd bool, scale float64) {
	var ev, od [16]complex128
	for i := 0; i < 16; i++ {
		ev[i] = d[2*i]
		od[i] = d[2*i+1]
	}
	fft16(ev[:], fwd, 1)
	fft16(od[:], fwd, 1)
	tw := &w32[0]
	if !fwd {
		tw = &w32[1]
	}
	if scale != 1 {
		cs := complex(scale, 0)
		for k := 0; k < 16; k++ {
			t := od[k] * tw[k]
			d[k] = (ev[k] + t) * cs
			d[k+16] = (ev[k] - t) * cs
		}
		return
	}
	for k := 0; k < 16; k++ {
		t := od[k] * tw[k]
		d[k] = ev[k] + t
		d[k+16] = ev[k] - t
	}
}
