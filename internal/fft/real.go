package fft

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Real-to-complex and complex-to-real transforms. Real input of length n has
// a Hermitian spectrum X[k] = conj(X[n−k]), so only n/2+1 coefficients are
// stored — the layout cuFFT (CUFFT_D2Z/Z2D) and FFTW (r2c/c2r) use, and the
// transform LAMMPS' KSPACE applies to its charge grid. The implementation
// packs the real signal into a half-length complex transform (the classic
// "two-for-one" trick), so it costs roughly half a complex FFT of the same
// length.
//
// Like the complex Plan, a RealPlan supports cuFFT's advanced batched layout
// (stride, dist, batch) on both sides of the transform via ForwardBatch and
// InverseBatch, and keeps its buffers in pools so steady-state batched
// transforms allocate nothing.
//
// Batches run a group of lines at a time across rows (rows.go) when the real
// side is unit-stride with an even distance of at least n and n/2 is a power
// of two from 8 up. Real line l read as complex values, z[j] = x[2j] +
// i·x[2j+1], is already complex128's memory layout, so a group of w lines is
// n/2 rows of w lanes at (pitch 1, lane dist/2) with nothing packed. Forward,
// the half-length transform runs across the rows into the tile and the
// even/odd split runs across lanes, spectrum row k from tile rows k and n/2−k.
// Inverse, the merge runs across lanes into a pooled tile and the last pass
// of the half-length transform stores into the real lines with its 1/(n/2)
// scale. A group has min(tileLines, lines left) lines rounded down to even;
// an odd last line, strided real lines, Bluestein and codelet half lengths
// run line by line (r2cLine, c2rLine): the line packed into one contiguous
// half-length line, then splitRows or mergeRows with one lane. The split and
// the merge are defined once, by the Go loops splitLanes and mergeLanes; on
// amd64 CPUs with AVX2 their lane pairs run in splitRowsAVX2 and
// mergeRowsAVX2 (radix4_amd64.s), which issue the same operations in the same
// order (conj as a sign flip, the products by zero, the halvings, the twiddle
// product, no fused multiply-add), so a line carries the same bits either
// way. Their divisions by 2 and 2i are the operations Go's complex division
// issues for those divisors, without C99 Annex G's recovery of an infinity
// from a NaN quotient: a non-finite value propagates as IEEE arithmetic has
// it, and so does an intermediate that overflows — a finite spectrum whose
// sum overflows, such as (MaxFloat64+MaxFloat64i, MaxFloat64+8.6e297i), can
// merge to NaN+NaNi where Go's complex division gives an infinity. Which NaN
// payload survives is not part of the contract.

// RealPlan holds tables for real transforms of a fixed even length.
// A RealPlan is safe for concurrent use by multiple goroutines once created.
type RealPlan struct {
	n    int
	half *Plan
	// tw[k] = exp(-2πik/n) for k <= n/2 … the post-processing twiddles.
	tw []complex128
	// scratch recycles the line buffer of r2cLine/c2rLine and the merge tile
	// of a row group (half.tileLines·n/2 complex values) so batched
	// transforms allocate nothing in steady state.
	scratch sync.Pool // *[]complex128, len half.tileLines*n/2
}

// NewRealPlan returns a plan for real transforms of even length n >= 2.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("fft: real transforms need even length >= 2, got %d", n)
	}
	p := &RealPlan{n: n, half: NewPlan(n / 2)}
	p.tw = make([]complex128, n/2+1)
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	return p, nil
}

// N reports the real transform length.
func (p *RealPlan) N() int { return p.n }

// SpectrumLen reports the stored half-spectrum length, n/2+1.
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

func (p *RealPlan) getScratch() *[]complex128 {
	if v := p.scratch.Get(); v != nil {
		return v.(*[]complex128)
	}
	buf := make([]complex128, p.half.tileLines*p.n/2)
	return &buf
}

func (p *RealPlan) putScratch(b *[]complex128) { p.scratch.Put(b) }

// ForwardBatch computes batch real-to-complex transforms in cuFFT's advanced
// D2Z layout: real line b reads x[b·xDist + i·xStride] for i < n, and its
// half-spectrum writes spec[b·specDist + k·specStride] for k <= n/2.
// Layouts two of whose spectrum lines share an element are rejected.
func (p *RealPlan) ForwardBatch(x []float64, xStride, xDist int, spec []complex128, specStride, specDist, batch int) error {
	rsp, ssp, err := p.batchSpecs(len(x), xStride, xDist, len(spec), specStride, specDist, batch, true)
	if err != nil {
		return err
	}
	if batch == 0 {
		return nil
	}
	p.r2cLines(x, rsp, spec, ssp)
	return nil
}

// InverseBatch is the batched Z2D inverse: spectrum line b reads
// spec[b·specDist + k·specStride], and the reconstructed real line writes
// x[b·xDist + i·xStride], scaled so InverseBatch(ForwardBatch(x)) == x.
// Layouts two of whose real lines share an element are rejected.
func (p *RealPlan) InverseBatch(spec []complex128, specStride, specDist int, x []float64, xStride, xDist, batch int) error {
	rsp, ssp, err := p.batchSpecs(len(x), xStride, xDist, len(spec), specStride, specDist, batch, false)
	if err != nil {
		return err
	}
	if batch == 0 {
		return nil
	}
	p.c2rLines(spec, ssp, x, rsp)
	return nil
}

// batchSpecs validates a two-sided advanced layout against the array lengths
// and returns the real- and spectrum-side specs. The side a transform writes
// (the spectrum forward, the real lines inverse) must not have two lines that
// share an element: a line would overwrite what another has written.
func (p *RealPlan) batchSpecs(xLen, xStride, xDist, sLen, specStride, specDist, batch int, fwd bool) (rsp, ssp batchSpec, err error) {
	if xStride < 1 || specStride < 1 || xDist < 0 || specDist < 0 || batch < 0 {
		return rsp, ssp, fmt.Errorf("fft: invalid real batch layout xStride=%d xDist=%d specStride=%d specDist=%d batch=%d",
			xStride, xDist, specStride, specDist, batch)
	}
	if batch > 0 {
		if need := (batch-1)*xDist + (p.n-1)*xStride + 1; xLen < need {
			return rsp, ssp, fmt.Errorf("fft: real array length %d < %d required by layout", xLen, need)
		}
		if need := (batch-1)*specDist + (p.n/2)*specStride + 1; sLen < need {
			return rsp, ssp, fmt.Errorf("fft: spectrum array length %d < %d required by layout", sLen, need)
		}
	}
	rsp = batchSpec{stride: xStride, batch1: 1, dist2: xDist, batch2: batch}
	ssp = batchSpec{stride: specStride, batch1: 1, dist2: specDist, batch2: batch}
	if fwd && ssp.sharesElements(p.n/2+1) {
		return rsp, ssp, fmt.Errorf("fft: spectrum lines of layout specStride=%d specDist=%d batch=%d share elements", specStride, specDist, batch)
	}
	if !fwd && rsp.sharesElements(p.n) {
		return rsp, ssp, fmt.Errorf("fft: real lines of layout xStride=%d xDist=%d batch=%d share elements", xStride, xDist, batch)
	}
	return rsp, ssp, nil
}

// acrossRows reports whether the lines of a batch run in groups across rows:
// the real side is unit-stride with an even distance of at least n, so the
// lines seen as complex are nested lines of n/2 at lane dist/2, and n/2 is a
// power of two the row engine takes.
func (p *RealPlan) acrossRows(rsp batchSpec) bool {
	return rsp.stride == 1 && rsp.dist2%2 == 0 && rsp.dist2 >= p.n && p.half.bluestein == nil && p.n/2 > maxCodelet
}

// complexView is x seen as complex values: element j is x[2j] + i·x[2j+1].
func complexView(x []float64) []complex128 {
	return unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(x))), len(x)/2)
}

// r2cLines transforms every real line of the layout: groups across rows
// where the layout allows, the rest line by line.
func (p *RealPlan) r2cLines(x []float64, rsp batchSpec, spec []complex128, ssp batchSpec) {
	zp := p.getScratch()
	z := (*zp)[:p.n/2]
	batch := rsp.total()
	rows := batch >= 2 && p.acrossRows(rsp)
	var tp *[]complex128
	if rows {
		tp = p.half.getTile()
	}
	for l := 0; l < batch; {
		if w := min(p.half.tileLines, batch-l) &^ 1; rows && w >= 2 {
			p.r2cRows(complexView(x[rsp.lineBase(l):]), rsp.dist2/2, spec, ssp.lineBase(l), ssp, w, *tp)
			l += w
			continue
		}
		p.r2cLine(x, rsp.lineBase(l), rsp.stride, spec, ssp.lineBase(l), ssp.stride, z)
		l++
	}
	if rows {
		p.half.putTile(tp)
	}
	p.putScratch(zp)
}

// c2rLines reconstructs every real line of the layout, in groups across rows
// where the layout allows, the rest line by line.
func (p *RealPlan) c2rLines(spec []complex128, ssp batchSpec, x []float64, rsp batchSpec) {
	zp := p.getScratch()
	z := (*zp)[:p.n/2]
	batch := rsp.total()
	rows := batch >= 2 && p.acrossRows(rsp)
	var tp *[]complex128
	if rows {
		tp = p.half.getTile()
	}
	for l := 0; l < batch; {
		if w := min(p.half.tileLines, batch-l) &^ 1; rows && w >= 2 {
			p.c2rRows(spec, ssp.lineBase(l), ssp, complexView(x[rsp.lineBase(l):]), rsp.dist2/2, w, *zp, *tp)
			l += w
			continue
		}
		p.c2rLine(spec, ssp.lineBase(l), ssp.stride, x, rsp.lineBase(l), rsp.stride, z)
		l++
	}
	if rows {
		p.half.putTile(tp)
	}
	p.putScratch(zp)
}

// r2cRows transforms a group of w real lines, line l's complex view at
// xc[l·lane:], into the spectrum lines at sb + l·dist: the half-length
// transform across rows into the tile, every pass in place, then splitRows.
func (p *RealPlan) r2cRows(xc []complex128, lane int, spec []complex128, sb int, ssp batchSpec, w int, tile []complex128) {
	tile = tile[:p.n/2*w]
	p.half.transformRows(tile, w, 1, xc, 1, lane, tile, w, Forward, 1)
	p.splitRows(tile, w, spec, sb, ssp.stride, ssp.dist2)
}

// c2rRows reconstructs a group of w real lines, line l's complex view at
// xc[l·lane:], from the spectrum lines at sb + l·dist: mergeRows into ztile,
// then the half-length inverse across rows, its last pass storing into the
// real lines with the 1/(n/2) scale.
func (p *RealPlan) c2rRows(spec []complex128, sb int, ssp batchSpec, xc []complex128, lane, w int, ztile, tile []complex128) {
	h := p.n / 2
	ztile = ztile[:h*w]
	p.mergeRows(spec, sb, ssp.stride, ssp.dist2, ztile, w)
	p.half.transformRows(xc, 1, lane, ztile, w, 1, tile, w, Inverse, 1/float64(h))
}

// splitRows splits the half-length transforms in the w lanes of tile (row j,
// lane l: z[j] of line l) into the spectra of the even and odd subsequences
// and combines them with the twiddles into the half-spectrum of line l at
// spec[sb + k·ss + l·sd], row k from tile rows k and n/2−k:
// (z[k] + conj(z[n/2−k]))/2 + tw[k]·(z[k] − conj(z[n/2−k]))/(2i). Lane
// pairs run through splitRowsAVX2 where the machine has it (useAVX2); the
// Go loop, splitLanes, runs the rest: every lane elsewhere, the one lane of
// r2cLine and an odd last lane. Both issue the same operations.
func (p *RealPlan) splitRows(tile []complex128, w int, spec []complex128, sb, ss, sd int) {
	l := 0
	if useAVX2 && w >= 2 {
		splitRowsVec(tile, w, p.n/2, spec[sb:], ss, sd, p.tw)
		l = w &^ 1
	}
	if l < w {
		p.splitLanes(tile, w, l, spec, sb, ss, sd)
	}
}

// splitLanes is splitRows for lanes from … w−1, the reference the vector
// routine is held to. The quotients are Go's complex division by 2 and 2i,
// spelled out on real and imaginary parts, products by zero included (they
// decide signed zeros).
func (p *RealPlan) splitLanes(tile []complex128, w, from int, spec []complex128, sb, ss, sd int) {
	h := p.n / 2
	for k := 0; k <= h; k++ {
		rk, rn := k, h-k
		if k == 0 || k == h {
			rk, rn = 0, 0
		}
		zk, znk := tile[rk*w:][:w], tile[rn*w:][:w]
		out := spec[sb+k*ss:][:(w-1)*sd+1]
		tr, ti := real(p.tw[k]), imag(p.tw[k])
		for l, o := from, from*sd; l < w; l, o = l+1, o+sd {
			zr, zi := real(zk[l]), imag(zk[l])
			nr, ni := real(znk[l]), imag(znk[l])
			sr, si := zr+nr, zi-ni // zk + conj(znk)
			dr, di := zr-nr, zi+ni // zk - conj(znk)
			er, ei := (sr+si*0)/2, (si-sr*0)/2
			or, oi := (dr*0+di)/2, (di*0-dr)/2
			out[o] = complex(er+(tr*or-ti*oi), ei+(tr*oi+ti*or))
		}
	}
}

// mergeRows rebuilds the packed half-length spectra of the spectrum lines at
// spec[sb + k·ss + l·sd] into the w lanes of ztile, row k:
// (s[k] + conj(s[n/2−k]))/2 + i·conj(tw[k])·(s[k] − conj(s[n/2−k]))/2.
// Lane pairs run through mergeRowsAVX2 where the machine has it, the rest
// through the Go loop, mergeLanes, as in splitRows.
func (p *RealPlan) mergeRows(spec []complex128, sb, ss, sd int, ztile []complex128, w int) {
	l := 0
	if useAVX2 && w >= 2 {
		mergeRowsVec(spec[sb:], ss, sd, ztile, w, p.n/2, p.tw)
		l = w &^ 1
	}
	if l < w {
		p.mergeLanes(spec, sb, ss, sd, ztile, w, l)
	}
}

// mergeLanes is mergeRows for lanes from … w−1, its operations spelled out as
// in splitLanes.
func (p *RealPlan) mergeLanes(spec []complex128, sb, ss, sd int, ztile []complex128, w, from int) {
	h := p.n / 2
	for k := 0; k < h; k++ {
		sk := spec[sb+k*ss:][:(w-1)*sd+1]
		snk := spec[sb+(h-k)*ss:][:(w-1)*sd+1]
		zk := ztile[k*w:][:w]
		cr, ci := real(p.tw[k]), -imag(p.tw[k]) // conj(tw[k])
		for l, o := from, from*sd; l < w; l, o = l+1, o+sd {
			ar, ai := real(sk[o]), imag(sk[o])
			br, bi := real(snk[o]), imag(snk[o])
			sr, si := ar+br, ai-bi // sk + conj(snk)
			dr, di := ar-br, ai+bi // sk - conj(snk)
			er, ei := (sr+si*0)/2, (si-sr*0)/2
			hr, hi := (dr+di*0)/2, (di-dr*0)/2
			or, oi := hr*cr-hi*ci, hr*ci+hi*cr
			zk[l] = complex(er+(or*0-oi), ei+(oi*0+or)) // even + i·odd
		}
	}
}

// r2cLine packs one strided real line into z, transforms, and splits the
// half-spectrum out of it: splitRows with one lane.
func (p *RealPlan) r2cLine(x []float64, xb, xs int, spec []complex128, sb, ss int, z []complex128) {
	h := p.n / 2
	// Pack pairs into a complex signal z[j] = x[2j] + i·x[2j+1].
	if xs == 1 {
		xl := x[xb : xb+2*h]
		for j := 0; j < h; j++ {
			z[j] = complex(xl[2*j], xl[2*j+1])
		}
	} else {
		for j := 0; j < h; j++ {
			z[j] = complex(x[xb+2*j*xs], x[xb+(2*j+1)*xs])
		}
	}
	p.half.transformContig(z, Forward)
	p.splitRows(z, 1, spec, sb, ss, 0)
}

// c2rLine rebuilds the packed half-length signal from one strided spectrum
// line (mergeRows with one lane), inverse-transforms it (1/N scaling fused),
// and scatters the real samples.
func (p *RealPlan) c2rLine(spec []complex128, sb, ss int, x []float64, xb, xs int, z []complex128) {
	h := p.n / 2
	p.mergeRows(spec, sb, ss, 0, z, 1)
	p.half.transformContig(z, Inverse)
	if xs == 1 {
		xl := x[xb : xb+2*h]
		for j := 0; j < h; j++ {
			xl[2*j] = real(z[j])
			xl[2*j+1] = imag(z[j])
		}
	} else {
		for j := 0; j < h; j++ {
			x[xb+2*j*xs] = real(z[j])
			x[xb+(2*j+1)*xs] = imag(z[j])
		}
	}
}
