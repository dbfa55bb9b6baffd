package fft

// Hard-coded codelets for n <= 4, the lengths the power-of-two engine cannot
// take: it needs at least one twiddled radix-4 pass to land its output in the
// caller's array, and n = 4 has none. They take natural-order input to
// natural-order output with no bit-reversal pass and no per-plan tables, and
// an output scaling is fused into the final combine, so the inverse 1/N never
// costs a separate sweep. Every longer power of two runs the row engine of
// rows.go.

// maxCodelet is the largest length served by the codelets.
const maxCodelet = 4

// codelet dispatches d (whose length must be 1, 2 or 4) to the unrolled
// transform, scaling every output by scale.
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
