package core

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/mpisim"
)

// ABFT phase invariants (IntegrityConfig.Invariants): the transform engine
// exploits the linearity of the DFT to verify every phase against a carried
// checksum vector, without any extra communication.
//
//   - 1-D/2-D FFT stages: the unnormalized forward DFT satisfies
//     Σ_k X_k = n·x_0 per column, so summed over the local brick
//     Σ(output) == n·Σ(input plane at index 0 along the transform axis).
//     The inverse (1/n fused into the kernel) satisfies Σ(output) == Σ(input
//     plane). Both sides are rank-local because compute stages always span
//     the transform axis. The phase input is retained (pooled snapshot), so
//     a failed invariant re-executes only that phase; corruption that
//     outlasts two re-executions surfaces as ErrIntegrity with rank+phase
//     context.
//
//   - Reshapes: every packed block carries its element sum out-of-band in
//     the message envelope (Buf.SumRe/SumIm), recomputed after unpack with
//     the identical summation, so any in-flight flip of the payload — which
//     cannot touch the envelope — is caught at the receiver even when the
//     transport's checksummed envelopes are disabled.
//
// The modeled cost of the fused snapshot+sum and verification passes is
// charged through the device's Retain/Checksum kernels; the transport layer
// charges the envelope passes itself when Checksums are on, so the work is
// never double-billed.

// sumEps is the IEEE-754 double machine epsilon, anchoring the rounding-noise
// floor of the invariant threshold.
const sumEps = 2.220446049250313e-16

// brickSum is the checksum vector of one brick region: the compensated
// complex sum plus the magnitude statistics the adaptive mismatch threshold
// needs. Summation is Kahan-compensated so the accumulated rounding error
// stays O(ε·Σ|x|) independent of element count — the silent-corruption flips
// (relative 2⁻¹² of one element and up) then sit orders of magnitude above
// the noise floor at every brick size the experiments run.
type brickSum struct {
	re, im   float64 // compensated sums
	reC, imC float64 // Kahan compensation terms
	absSum   float64 // Σ(|re|+|im|) over the scanned region
	absMax   float64 // largest |re|,|im| seen
}

func (b *brickSum) add(v complex128) {
	re, im := real(v), imag(v)
	b.re = kahan(b.re, re, &b.reC)
	b.im = kahan(b.im, im, &b.imC)
	are, aim := math.Abs(re), math.Abs(im)
	b.absSum += are + aim
	if are > b.absMax {
		b.absMax = are
	}
	if aim > b.absMax {
		b.absMax = aim
	}
}

// kahan performs one compensated-summation step.
func kahan(sum, v float64, comp *float64) float64 {
	y := v - *comp
	t := sum + y
	*comp = (t - sum) - y
	return t
}

// sumBlock sums a whole brick or block: complex elements through add, real
// ones through the real half's compensated sum (im stays zero). One helper, so
// an envelope and its verification run the identical summation.
func sumBlock[T any](data []T) brickSum {
	var b brickSum
	switch d := any(data).(type) {
	case []complex128:
		for _, v := range d {
			b.add(v)
		}
	case []float64:
		for _, v := range d {
			b.re = kahan(b.re, v, &b.reC)
			b.absSum += math.Abs(v)
		}
	}
	return b
}

// sumPlane sums the elements with index 0 along the transform axis of a
// brick with local sizes s (row-major).
func sumPlane(d []complex128, s [3]int, axis int) brickSum {
	var b brickSum
	switch axis {
	case 0:
		for _, v := range d[:s[1]*s[2]] {
			b.add(v)
		}
	case 1:
		for i0 := 0; i0 < s[0]; i0++ {
			row := d[i0*s[1]*s[2]:]
			for _, v := range row[:s[2]] {
				b.add(v)
			}
		}
	default: // axis 2
		for i0 := 0; i0 < s[0]; i0++ {
			for i1 := 0; i1 < s[1]; i1++ {
				b.add(d[(i0*s[1]+i1)*s[2]])
			}
		}
	}
	return b
}

// sumLine sums the (k1=0, k2=0) line of a slab (the 2-D stage transforms
// axes 1 and 2, so its zero-frequency region is one element per plane).
func sumLine(d []complex128, s [3]int) brickSum {
	var b brickSum
	for i0 := 0; i0 < s[0]; i0++ {
		b.add(d[i0*s[1]*s[2]])
	}
	return b
}

// invariantTol is the relative tolerance of the phase invariants: mismatch
// when |Δ| > invariantTol·(1+|expected|), plus the rounding floor below.
const invariantTol = 1e-9

// invariantOK evaluates |Σout − scale·Σin| against the adaptive threshold:
// the relative tolerance invariantTol anchored at the largest output element,
// floored by the accumulated rounding noise of the compensated sums and the
// transform itself (both O(ε·Σ|x|)). quantEps widens that floor when the
// plan's exchanges are compressed (PR 9): data reaching the stage then
// carries wire-grid rounding, whose sum error is bounded by ε_wire·Σ|x| —
// a 4× margin on that exact bound keeps false positives out without the 64×
// re-association slack of the summation term, which would also swallow real
// single-element flips. Zero on a full-precision plan (bit-identical to the
// PR 8 behavior).
func invariantOK(pre, post brickSum, scale, quantEps float64) bool {
	dRe := post.re - scale*pre.re
	dIm := post.im - scale*pre.im
	noise := post.absSum + scale*pre.absSum
	thr := invariantTol*(1+post.absMax) + 64*sumEps*noise + 4*quantEps*noise
	return math.Abs(dRe)+math.Abs(dIm) <= thr
}

// envelopeSum computes a packed block's out-of-band checksum vector
// (Buf.SumRe/SumIm). On a full-precision wire the identical sequential
// summation is recomputed at unpack, so a clean delivery reproduces the
// envelope bit-for-bit and any in-flight payload flip is an exact mismatch —
// no tolerance needed. On a compressed wire the sum rides the pack kernel's
// full-precision read (before down-conversion), so the receiver's recomputed
// sum differs by the accumulated wire rounding and verification switches to
// the wire-epsilon threshold.
func envelopeSum[T any](b *mpisim.Buf, data []T) {
	s := sumBlock(data)
	b.SumRe, b.SumIm = s.re, s.im
	b.Summed = true
}

// verifyEnvelope recomputes the sum of a block received from rank gi of g
// against its envelope. Mismatch means the payload changed in flight past
// every transport defense: the sender's link is suspected and the exchange
// (named by what) fails with ErrIntegrity — the block cannot be repaired
// locally and a reshape cannot be re-executed from retained input the way a
// compute phase can.
func verifyEnvelope[T any](g *mpisim.Comm, gi int, b *mpisim.Buf, what string) {
	if !b.Summed {
		return
	}
	ctr := g.IntegrityCounters()
	ctr.InvariantChecks.Add(1)
	s := sumBlock(bufSlice[T](b))
	bad := s.re != b.SumRe || s.im != b.SumIm
	if bad && b.Wire != mpisim.WireFp64 {
		// Compressed block: the envelope was summed before down-conversion,
		// so a clean delivery differs by at most one wire half-ulp per element
		// (relative, Eps·Σ|x| in aggregate) plus the subnormal grid step
		// (absolute, Tiny per value). The factor 4 absorbs the compensated
		// sums' own rounding. An injected flip — ≥2⁻¹² relative of a
		// non-negligible element — clears this threshold at every block size
		// the experiments run.
		eps, tiny := b.Wire.Eps(), b.Wire.Tiny()
		thr := 4 * (eps*s.absSum + tiny*2*float64(b.Elems()))
		bad = math.Abs(s.re-b.SumRe)+math.Abs(s.im-b.SumIm) > thr
	}
	if bad {
		ctr.InvariantFailures.Add(1)
		srcW := g.WorldRank(gi)
		g.NoteSuspicion(srcW, 1)
		g.Fail(fmt.Errorf("core: %w: rank %d: block from rank %d failed envelope sum after the %s exchange",
			mpisim.ErrIntegrity, g.WorldRank(g.Rank()), srcW, what))
	}
}

// runABFT is computeStage's body with the ABFT phase invariant armed: snapshot
// the phase input (fused with its plane sum), run the kernel, verify the
// DFT-linearity invariant over the output brick, and re-execute the phase from
// the retained input on mismatch — at most twice before the corruption
// surfaces as ErrIntegrity. Every execution attempt consumes one
// brick-corruption probe, so injected Brick faults with Count=1 are healed by
// the first re-execution and Count≥3 exhausts the budget deterministically.
func (e *engine) runABFT(st *stage, fields []*Field, dir fft.Direction) float64 {
	s := st.myBox.Sizes()
	g := e.dev.Model()
	vol := st.myBox.Volume()
	bytes := 16 * vol
	ctr := e.comm.IntegrityCounters()

	// Steady-state per-entry charges: the retained snapshot fused with the
	// pre-sum, the kernel itself, and the verification sum over the output.
	// Batch entries beyond the first ride the overlap pipeline through the
	// returned per-entry cost, exactly like the plain path.
	e.dev.Retain(bytes)
	per := e.chargeKernel(st) + g.RetainCost(bytes) + g.ChecksumCost(bytes)
	e.dev.Checksum(bytes)

	if fields[0].Phantom() {
		// Cost-only: identical virtual charges, one probe per entry so fault
		// plans keep deterministic coordinates, no numerics and no retries.
		ctr.InvariantChecks.Add(int64(len(fields)))
		for range fields {
			e.comm.BrickProbe()
		}
		return per
	}

	// Forward stages check Σ(out) == n·Σ(in plane); the inverse kernels fuse
	// the 1/n scaling, collapsing the factor to 1.
	scale := float64(s[st.axis])
	if st.kind == stageFFT2D {
		scale = float64(s[1] * s[2])
	}
	if dir == fft.Inverse {
		scale = 1
	}
	me := e.comm.WorldRank(e.comm.Rank())

	retained := getBuf[complex128](vol)
	for _, f := range fields {
		copy(retained, f.Data)
		var pre brickSum
		if st.kind == stageFFT2D {
			pre = sumLine(f.Data, s)
		} else {
			pre = sumPlane(f.Data, s, st.axis)
		}
		for attempt := 0; ; attempt++ {
			e.kernel(st, f.Data, st.myBox, dir)
			if hit, seed := e.comm.BrickProbe(); hit {
				mpisim.CorruptComplex(f.Data, seed)
			}
			post := sumBlock(f.Data)
			ctr.InvariantChecks.Add(1)
			if invariantOK(pre, post, scale, e.abftEps) {
				break
			}
			ctr.InvariantFailures.Add(1)
			e.comm.NoteSuspicion(me, 1)
			if attempt >= 2 {
				putBuf(retained)
				e.comm.Fail(fmt.Errorf("core: %w: rank %d: phase invariant still failing after %d re-executions",
					mpisim.ErrIntegrity, me, attempt))
			}
			// Phase-scoped re-execution from the retained input: restore the
			// snapshot and charge the restore pass plus the repeated kernel
			// and verification.
			ctr.PhaseReexecs.Add(1)
			copy(f.Data, retained)
			e.dev.Retain(bytes)
			e.chargeKernel(st)
			e.dev.Checksum(bytes)
		}
	}
	putBuf(retained)
	return per
}
