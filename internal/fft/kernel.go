package fft

import (
	"fmt"
	"math"
	"math/bits"
)

// Power-of-two kernel engine: the tables.
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
// The passes run across the rows of a group of lines (rows.go), and so does a
// line on its own: it is a group of two lanes that are the same line. There
// is no standalone bit-reversal sweep: the first (twiddle-free) stage gathers
// its operands through the bit-reversal table while writing the packed tile
// row after row, and the final pass stores into the caller's array with an
// output scaling (the inverse 1/N) folded into its butterflies.
//
// Twiddles are laid out per pass as (t1, t2, t3) triples in exactly the
// order the butterfly consumes them, so a row of the pass reads the table
// sequentially. For a pass that merges quarter-blocks of size s into blocks
// of 4s:
//
//	t1 = W_{2s}^j     (the fused first sub-stage)
//	t2 = W_{4s}^j     (second sub-stage, lower half)
//	t3 = W_{4s}^{j+s} (second sub-stage, upper half)

// twiddle3 is one butterfly's worth of twiddles, kept adjacent so the inner
// loop issues a single bounded load per j.
type twiddle3 struct{ t1, t2, t3 complex128 }

// initPow2 builds the bit-reversal permutation and per-pass twiddle tables,
// and checks the permutation once: the first row stage's assembly indexes the
// caller's rows through it without a bounds check. The codelet lengths
// (n <= 4) need no tables at all.
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
	checkRev(p.rev, p.firstTabS) // the first stage's radix: 2 or 4
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

// checkRev panics unless rev is a table a first row stage of radix r (2 or 4)
// may gather through: n = len(rev) indices, each below n, with n a positive
// multiple of r.
func checkRev(rev []int32, r int) {
	n := len(rev)
	ok := n > 0 && n%r == 0
	for _, i := range rev {
		ok = ok && uint32(i) < uint32(n)
	}
	if !ok {
		panic(fmt.Sprintf("fft: invalid bit-reversal table for a radix-%d first stage, len(rev)=%d", r, n))
	}
}
