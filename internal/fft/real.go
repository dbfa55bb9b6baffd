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
// run line by line (r2cLine, c2rLine), the reference: the row loops compute
// half's and divTwoI's quotients inline and rerun their group line by line
// wherever a value comes out NaN or infinite, which a NaN quotient — the one
// case infFix may correct — makes one do, so every line carries the
// reference's bits.

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
		end := l + 1
		if w := min(p.half.tileLines, batch-l) &^ 1; rows && w >= 2 {
			if p.r2cRows(complexView(x[rsp.lineBase(l):]), rsp.dist2/2, spec, ssp.lineBase(l), ssp, w, *tp) {
				l += w
				continue
			}
			end = l + w // a NaN: the group again, line by line
		}
		for ; l < end; l++ {
			p.r2cLine(x, rsp.lineBase(l), rsp.stride, spec, ssp.lineBase(l), ssp.stride, z)
		}
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
		end := l + 1
		if w := min(p.half.tileLines, batch-l) &^ 1; rows && w >= 2 {
			if p.c2rRows(spec, ssp.lineBase(l), ssp, complexView(x[rsp.lineBase(l):]), rsp.dist2/2, w, *zp, *tp) {
				l += w
				continue
			}
			end = l + w // a NaN: the group again, line by line
		}
		for ; l < end; l++ {
			p.c2rLine(spec, ssp.lineBase(l), ssp.stride, x, rsp.lineBase(l), rsp.stride, z)
		}
	}
	if rows {
		p.half.putTile(tp)
	}
	p.putScratch(zp)
}

// r2cRows transforms a group of w real lines, line l's complex view at
// xc[l·lane:], into the spectrum lines at sb + l·dist: the half-length
// transform across rows into the tile, every pass in place, then splitRows.
// It reports false, and the caller reruns the group line by line, where
// splitRows does.
func (p *RealPlan) r2cRows(xc []complex128, lane int, spec []complex128, sb int, ssp batchSpec, w int, tile []complex128) bool {
	tile = tile[:p.n/2*w]
	p.half.transformRows(tile, w, 1, xc, 1, lane, tile, w, Forward, 1)
	return p.splitRows(tile, w, spec, sb, ssp)
}

// c2rRows reconstructs a group of w real lines, line l's complex view at
// xc[l·lane:], from the spectrum lines at sb + l·dist: mergeRows into ztile,
// then the half-length inverse across rows, its last pass storing into the
// real lines with the 1/(n/2) scale. It reports false, having stored nothing,
// and the caller reruns the group line by line, where mergeRows does.
func (p *RealPlan) c2rRows(spec []complex128, sb int, ssp batchSpec, xc []complex128, lane, w int, ztile, tile []complex128) bool {
	h := p.n / 2
	ztile = ztile[:h*w]
	if !p.mergeRows(spec, sb, ssp, ztile, w) {
		return false
	}
	p.half.transformRows(xc, 1, lane, ztile, w, 1, tile, w, Inverse, 1/float64(h))
	return true
}

// splitRows is splitLine across the w lanes of tile (row j, lane l: z[j] of
// line l) into the spectrum lines at sb + l·dist, row k from tile rows k and
// n/2−k. It spells out on real and imaginary parts the operations splitLine
// issues — half's and divTwoI's quotients without infFix, then Go's complex
// multiply and add — which give the same bits wherever the output is not NaN.
// It reports false when a row's outputs hold a NaN or an infinity (their sum
// then turns NaN; so it does if the sum overflows), as a NaN quotient makes
// them do.
func (p *RealPlan) splitRows(tile []complex128, w int, spec []complex128, sb int, ssp batchSpec) bool {
	h := p.n / 2
	ss, sd := ssp.stride, ssp.dist2
	for k := 0; k <= h; k++ {
		rk, rn := k, h-k
		if k == 0 || k == h {
			rk, rn = 0, 0
		}
		zk, znk := tile[rk*w:][:w], tile[rn*w:][:w]
		out := spec[sb+k*ss:][:(w-1)*sd+1]
		tr, ti := real(p.tw[k]), imag(p.tw[k])
		check := 0.0
		for l, o := 0, 0; l < w; l, o = l+1, o+sd {
			zr, zi := real(zk[l]), imag(zk[l])
			nr, ni := real(znk[l]), imag(znk[l])
			sr, si := zr+nr, zi-ni // zk + conj(znk)
			dr, di := zr-nr, zi+ni // zk - conj(znk)
			er, ei := (sr+si*0)/2, (si-sr*0)/2
			or, oi := (dr*0+di)/2, (di*0-dr)/2
			vr, vi := er+(tr*or-ti*oi), ei+(tr*oi+ti*or)
			check += vr + vi
			out[o] = complex(vr, vi)
		}
		if check-check != 0 {
			return false
		}
	}
	return true
}

// mergeRows is mergeLine across lanes: from the spectrum lines at sb + l·dist
// into the w lanes of ztile, its operations spelled out as in splitRows, and
// reports false as splitRows does.
func (p *RealPlan) mergeRows(spec []complex128, sb int, ssp batchSpec, ztile []complex128, w int) bool {
	h := p.n / 2
	ss, sd := ssp.stride, ssp.dist2
	for k := 0; k < h; k++ {
		sk := spec[sb+k*ss:][:(w-1)*sd+1]
		snk := spec[sb+(h-k)*ss:][:(w-1)*sd+1]
		zk := ztile[k*w:][:w]
		cr, ci := real(p.tw[k]), -imag(p.tw[k]) // conj(tw[k])
		check := 0.0
		for l, o := 0, 0; l < w; l, o = l+1, o+sd {
			ar, ai := real(sk[o]), imag(sk[o])
			br, bi := real(snk[o]), imag(snk[o])
			sr, si := ar+br, ai-bi // sk + conj(snk)
			dr, di := ar-br, ai+bi // sk - conj(snk)
			er, ei := (sr+si*0)/2, (si-sr*0)/2
			hr, hi := (dr+di*0)/2, (di-dr*0)/2
			or, oi := hr*cr-hi*ci, hr*ci+hi*cr
			vr, vi := er+(or*0-oi), ei+(oi*0+or) // even + i·odd
			check += vr + vi
			zk[l] = complex(vr, vi)
		}
		if check-check != 0 {
			return false
		}
	}
	return true
}

// r2cLine packs one strided real line into z, transforms, and splits the
// half-spectrum out of it (splitLine).
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
	p.splitLine(z, spec, sb, ss)
}

// splitLine splits the transform z of the packed line into the spectra of
// the even and odd subsequences and combines them with the twiddles into the
// half-spectrum at spec[sb + k·ss].
func (p *RealPlan) splitLine(z, spec []complex128, sb, ss int) {
	h := p.n / 2
	for k := 0; k <= h; k++ {
		var zk, znk complex128
		if k == 0 || k == h {
			zk = z[0]
			znk = z[0]
		} else {
			zk = z[k]
			znk = z[h-k]
		}
		even := half(zk + conj(znk))
		odd := divTwoI(zk - conj(znk))
		spec[sb+k*ss] = even + p.tw[k]*odd
	}
}

// c2rLine rebuilds the packed half-length signal from one strided spectrum
// line (mergeLine), inverse-transforms it (1/N scaling fused), and scatters
// the real samples.
func (p *RealPlan) c2rLine(spec []complex128, sb, ss int, x []float64, xb, xs int, z []complex128) {
	h := p.n / 2
	p.mergeLine(spec, sb, ss, z)
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

// mergeLine rebuilds the packed half-length spectrum z of one spectrum line.
func (p *RealPlan) mergeLine(spec []complex128, sb, ss int, z []complex128) {
	h := p.n / 2
	for k := 0; k < h; k++ {
		sk := spec[sb+k*ss]
		snk := conj(spec[sb+(h-k)*ss])
		even := half(sk + snk)
		odd := half(sk-snk) * conj(p.tw[k])
		z[k] = even + complex(0, 1)*odd
	}
}

func conj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// half and divTwoI are z/2 and z/(2i) without the runtime's general complex
// division: each issues exactly the operations complex128div performs for that
// divisor — Smith's algorithm with ratio 0 and denominator 2, products by zero
// included, since they turn an infinite part into NaN and a -0 into +0 — so the
// bits are the same for every input; the divisions by 2 compile to exact
// multiplications by 0.5. The C99 fix-up the runtime applies when both parts
// come out NaN is infFix.
func half(z complex128) complex128 {
	a, b := real(z), imag(z)
	q := complex((a+b*0)/2, (b-a*0)/2)
	if q != q {
		return infFix(z, 2, q)
	}
	return q
}

func divTwoI(z complex128) complex128 {
	a, b := real(z), imag(z)
	q := complex((a*0+b)/2, (b*0-a)/2)
	if q != q {
		return infFix(z, 2i, q)
	}
	return q
}

// infFix is complex128div's correction of the quotient q of n by the finite
// nonzero m: when both parts of q are NaN and a part of n is infinite, the
// result is infinite (ISO/IEC 9899:1999 G.5.1); otherwise q stands.
func infFix(n, m, q complex128) complex128 {
	a, b, c, d := real(n), imag(n), real(m), imag(m)
	if !math.IsNaN(real(q)) || !math.IsNaN(imag(q)) || !math.IsInf(a, 0) && !math.IsInf(b, 0) {
		return q
	}
	a, b = inf2one(a), inf2one(b)
	inf := math.Inf(1)
	return complex(inf*(a*c+b*d), inf*(b*c-a*d))
}

// inf2one is a 1 for an infinity and a 0 otherwise, with f's sign.
func inf2one(f float64) float64 {
	g := 0.0
	if math.IsInf(f, 0) {
		g = 1
	}
	return math.Copysign(g, f)
}
