package fft

import (
	"math"
	"math/bits"
)

// Power-of-two kernel engine.
//
// Lengths n <= 4 are handled by the unrolled codelets in codelet.go. Every
// longer power of two, from 8 up, runs an iterative decimation-in-time
// transform whose radix-2 stages are fused in pairs into radix-4 passes: one
// pass over memory does the work of two textbook stages, halving the number
// of sweeps through the array — the dominant cost once n outgrows L1. Odd
// log2(n) is handled by a single twiddle-free radix-2 fix-up stage fused into
// the input gather. The last twiddled pass is the one that stores into the
// caller's array; 8 and 16 points have one, 32 have two, 4 points none, which
// is why n <= 4 keeps its codelets.
//
// The standalone bit-reversal permutation of the old engine is gone: the
// first (twiddle-free) stage gathers its operands through the bit-reversal
// table while writing sequentially into a pooled buffer — one line for a
// single line, a tile of rows for a group of lines of a batch, adjacent
// strided or contiguous (rows.go) — so reordering costs no extra sweep. The final radix-4 pass
// writes to a different destination array and folds an output scaling (the
// inverse 1/N) into its butterflies, which deletes both the copy-back and the
// separate scaling sweep.
//
// Twiddles are laid out per pass as (t1, t2, t3) triples in exactly the
// order the butterfly consumes them, so the inner loop reads the table
// sequentially instead of gathering with a stride as the old radix-2 code
// did. For a pass that merges quarter-blocks of size s into blocks of 4s:
//
//	t1 = W_{2s}^j     (the fused first sub-stage)
//	t2 = W_{4s}^j     (second sub-stage, lower half)
//	t3 = W_{4s}^{j+s} (second sub-stage, upper half)
//
// The twiddled pass loops below (radix4Pass, radix4PassTo) and the row loops
// of rows.go (pairsRows, quadsRows, radix4Rows) are the reference: what they
// compute, bit for bit, is what a pass means. On amd64 CPUs with AVX2 the
// kernels run the routines of radix4_amd64.s instead (radix4AVX2 for a line,
// pairsRowsAVX2, quadsRowsAVX2 and radix4RowsAVX2 across rows), which read the
// same tables and issue the same multiplies, adds and subtracts in the same
// association — no fused multiply-add, whose single rounding would change the
// bits. The loops run as written on every other GOARCH, without AVX2 and in
// race builds.

// twiddle3 is one butterfly's worth of twiddles, kept adjacent so the inner
// loop issues a single bounded load per j.
type twiddle3 struct{ t1, t2, t3 complex128 }

// initPow2 builds the bit-reversal permutation and per-pass twiddle tables.
// The codelet lengths (n <= 4) need no tables at all.
func (p *Plan) initPow2() {
	n := p.n
	if n <= maxCodelet {
		return
	}
	logN := bits.TrailingZeros(uint(n))
	p.rev = make([]int32, n)
	shift := 64 - uint(logN)
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	p.preRadix2 = logN%2 == 1
	p.firstTabS = 4 // the s=1 stage is fused into the gather
	if p.preRadix2 {
		p.firstTabS = 2
	}
	for d := 0; d < 2; d++ {
		sign := -1.0
		if Direction(d) == Inverse {
			sign = 1.0
		}
		var passes [][]twiddle3
		for s := p.firstTabS; 4*s <= n; s *= 4 {
			tw := make([]twiddle3, s)
			for j := 0; j < s; j++ {
				tw[j] = twiddle3{
					t1: cis(sign * 2 * math.Pi * float64(j) / float64(2*s)),
					t2: cis(sign * 2 * math.Pi * float64(j) / float64(4*s)),
					t3: cis(sign * 2 * math.Pi * float64(j+s) / float64(4*s)),
				}
			}
			passes = append(passes, tw)
		}
		p.tw4[d] = passes
	}
}

func cis(ang float64) complex128 { return complex(math.Cos(ang), math.Sin(ang)) }

// kernelPow2 computes an in-place power-of-two transform with the output
// multiplied by scale (pass 1 for an unscaled transform), ping-ponging
// through a pooled work buffer. Valid only for plans with p.bluestein == nil.
func (p *Plan) kernelPow2(data []complex128, dir Direction, scale float64) {
	if p.n <= maxCodelet {
		codelet(data, dir == Forward, scale)
		return
	}
	sp := p.getScratch()
	p.kernelPow2Buf(data, (*sp)[:p.n], dir, scale)
	p.putScratch(sp)
}

// kernelPow2Buf is kernelPow2 with a caller-provided work buffer (length n),
// so batch loops hoist the pool round-trip out of their line loop. data and
// work must not overlap; work's prior contents are ignored.
func (p *Plan) kernelPow2Buf(data, work []complex128, dir Direction, scale float64) {
	n := p.n
	if n <= maxCodelet {
		codelet(data, dir == Forward, scale)
		return
	}
	// First stage fused with the bit-reversal gather: sequential writes into
	// work, permuted reads from data.
	if p.preRadix2 {
		gatherPairs(work, data, p.rev)
	} else {
		gatherQuads(work, data, p.rev, dir == Forward)
	}
	// Middle passes run in place on work; the final pass writes back to data
	// with the output scaling fused in.
	passes := p.tw4[dir]
	s := p.firstTabS
	last := len(passes) - 1
	for i, tw := range passes {
		if i < last {
			pass4(work, s, tw)
		} else {
			pass4To(data, work, s, tw, scale)
		}
		s *= 4
	}
}

// gatherPairs performs the radix-2 fix-up stage for odd log2 sizes while
// gathering bit-reversed operands: size-2 butterflies, sequential writes.
func gatherPairs(dst, src []complex128, rev []int32) {
	for i := 0; i+1 < len(rev); i += 2 {
		a := src[rev[i]]
		b := src[rev[i+1]]
		dst[i] = a + b
		dst[i+1] = a - b
	}
}

// gatherQuads performs the first radix-4 stage (4-point DFTs, twiddles 1 and
// ∓i only) while gathering bit-reversed operands.
func gatherQuads(dst, src []complex128, rev []int32, fwd bool) {
	if fwd {
		for i := 0; i+3 < len(rev); i += 4 {
			a, b := src[rev[i]], src[rev[i+1]]
			c, d := src[rev[i+2]], src[rev[i+3]]
			e0, e1 := a+b, a-b
			f0 := c + d
			cd := c - d
			f1 := complex(imag(cd), -real(cd)) // (c-d)·(-i)
			dst[i] = e0 + f0
			dst[i+1] = e1 + f1
			dst[i+2] = e0 - f0
			dst[i+3] = e1 - f1
		}
		return
	}
	for i := 0; i+3 < len(rev); i += 4 {
		a, b := src[rev[i]], src[rev[i+1]]
		c, d := src[rev[i+2]], src[rev[i+3]]
		e0, e1 := a+b, a-b
		f0 := c + d
		cd := c - d
		f1 := complex(-imag(cd), real(cd)) // (c-d)·(+i)
		dst[i] = e0 + f0
		dst[i+1] = e1 + f1
		dst[i+2] = e0 - f0
		dst[i+3] = e1 - f1
	}
}

// pass4 and pass4To are what the kernels call for a twiddled pass: the vector
// routine where the machine has one (useAVX2), else the matching Go loop
// below. Both produce the same bits.
func pass4(data []complex128, s int, tw []twiddle3) {
	if useAVX2 {
		radix4Vec(data, data, s, tw, 1, false)
		return
	}
	radix4Pass(data, s, tw)
}

func pass4To(dst, src []complex128, s int, tw []twiddle3, scale float64) {
	if useAVX2 {
		radix4Vec(dst, src, s, tw, scale, scale != 1)
		return
	}
	radix4PassTo(dst, src, s, tw, scale)
}

// radix4Pass merges quarter-blocks of size s into blocks of 4s, doing the
// work of two radix-2 stages in one sweep.
func radix4Pass(data []complex128, s int, tw []twiddle3) {
	n := len(data)
	tw = tw[:s]
	for base := 0; base < n; base += 4 * s {
		b0 := data[base : base+s : base+s]
		b1 := data[base+s : base+2*s : base+2*s]
		b2 := data[base+2*s : base+3*s : base+3*s]
		b3 := data[base+3*s : base+4*s : base+4*s]
		for j := 0; j < s; j++ {
			t := &tw[j]
			a := b0[j]
			b := b1[j] * t.t1
			c := b2[j]
			d := b3[j] * t.t1
			e0 := a + b
			e1 := a - b
			f0 := (c + d) * t.t2
			f1 := (c - d) * t.t3
			b0[j] = e0 + f0
			b1[j] = e1 + f1
			b2[j] = e0 - f0
			b3[j] = e1 - f1
		}
	}
}

// radix4PassTo is the final ping-pong pass: butterflies read src and store
// to dst (disjoint arrays, same indices), folding in the output scaling, so
// the transform lands back in the caller's array without a copy sweep.
func radix4PassTo(dst, src []complex128, s int, tw []twiddle3, scale float64) {
	n := len(src)
	tw = tw[:s]
	if scale == 1 {
		for base := 0; base < n; base += 4 * s {
			s0 := src[base : base+s : base+s]
			s1 := src[base+s : base+2*s : base+2*s]
			s2 := src[base+2*s : base+3*s : base+3*s]
			s3 := src[base+3*s : base+4*s : base+4*s]
			d0 := dst[base : base+s : base+s]
			d1 := dst[base+s : base+2*s : base+2*s]
			d2 := dst[base+2*s : base+3*s : base+3*s]
			d3 := dst[base+3*s : base+4*s : base+4*s]
			for j := 0; j < s; j++ {
				t := &tw[j]
				a := s0[j]
				b := s1[j] * t.t1
				c := s2[j]
				d := s3[j] * t.t1
				e0 := a + b
				e1 := a - b
				f0 := (c + d) * t.t2
				f1 := (c - d) * t.t3
				d0[j] = e0 + f0
				d1[j] = e1 + f1
				d2[j] = e0 - f0
				d3[j] = e1 - f1
			}
		}
		return
	}
	cs := complex(scale, 0)
	for base := 0; base < n; base += 4 * s {
		s0 := src[base : base+s : base+s]
		s1 := src[base+s : base+2*s : base+2*s]
		s2 := src[base+2*s : base+3*s : base+3*s]
		s3 := src[base+3*s : base+4*s : base+4*s]
		d0 := dst[base : base+s : base+s]
		d1 := dst[base+s : base+2*s : base+2*s]
		d2 := dst[base+2*s : base+3*s : base+3*s]
		d3 := dst[base+3*s : base+4*s : base+4*s]
		for j := 0; j < s; j++ {
			t := &tw[j]
			a := s0[j]
			b := s1[j] * t.t1
			c := s2[j]
			d := s3[j] * t.t1
			e0 := a + b
			e1 := a - b
			f0 := (c + d) * t.t2
			f1 := (c - d) * t.t3
			d0[j] = (e0 + f0) * cs
			d1[j] = (e1 + f1) * cs
			d2[j] = (e0 - f0) * cs
			d3[j] = (e1 - f1) * cs
		}
	}
}
