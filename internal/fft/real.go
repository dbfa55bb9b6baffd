package fft

import (
	"fmt"
	"math"
	"sync"
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
// InverseBatch, executes large batches on the shared worker pool, and keeps
// its pack buffer in a pool so steady-state batched transforms allocate
// nothing.

// RealPlan holds tables for real transforms of a fixed even length.
// A RealPlan is safe for concurrent use by multiple goroutines once created.
type RealPlan struct {
	n    int
	half *Plan
	// tw[k] = exp(-2πik/n) for k <= n/2 … the post-processing twiddles.
	tw []complex128
	// scratch recycles the half-length pack buffer (n/2 complex values) so
	// batched transforms allocate nothing in steady state.
	scratch sync.Pool // *[]complex128, len n/2
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
	buf := make([]complex128, p.n/2)
	return &buf
}

func (p *RealPlan) putScratch(b *[]complex128) { p.scratch.Put(b) }

// ForwardBatch computes batch real-to-complex transforms in cuFFT's advanced
// D2Z layout: real line b reads x[b·xDist + i·xStride] for i < n, and its
// half-spectrum writes spec[b·specDist + k·specStride] for k <= n/2. Large
// batches fan out over the shared worker pool; lines touch disjoint
// elements, so results are bit-identical to serial execution.
func (p *RealPlan) ForwardBatch(x []float64, xStride, xDist int, spec []complex128, specStride, specDist, batch int) error {
	rsp, ssp, err := p.batchSpecs(len(x), xStride, xDist, len(spec), specStride, specDist, batch)
	if err != nil {
		return err
	}
	if batch == 0 {
		return nil
	}
	if batch > 1 && batch*p.n >= minParallelWork {
		if p.runRealBatchParallel(x, rsp, spec, ssp, true) {
			return nil
		}
	}
	p.r2cLines(x, rsp, spec, ssp, 0, batch)
	return nil
}

// InverseBatch is the batched Z2D inverse: spectrum line b reads
// spec[b·specDist + k·specStride], and the reconstructed real line writes
// x[b·xDist + i·xStride], scaled so InverseBatch(ForwardBatch(x)) == x.
func (p *RealPlan) InverseBatch(spec []complex128, specStride, specDist int, x []float64, xStride, xDist, batch int) error {
	rsp, ssp, err := p.batchSpecs(len(x), xStride, xDist, len(spec), specStride, specDist, batch)
	if err != nil {
		return err
	}
	if batch == 0 {
		return nil
	}
	if batch > 1 && batch*p.n >= minParallelWork {
		if p.runRealBatchParallel(x, rsp, spec, ssp, false) {
			return nil
		}
	}
	p.c2rLines(spec, ssp, x, rsp, 0, batch)
	return nil
}

// batchSpecs validates a two-sided advanced layout against the array lengths
// and returns the real- and spectrum-side specs.
func (p *RealPlan) batchSpecs(xLen, xStride, xDist, sLen, specStride, specDist, batch int) (rsp, ssp batchSpec, err error) {
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
	return rsp, ssp, nil
}

// r2cLines transforms real lines [lo, hi) of the layout — the unit of work
// of both the serial path and the worker pool.
func (p *RealPlan) r2cLines(x []float64, rsp batchSpec, spec []complex128, ssp batchSpec, lo, hi int) {
	zp := p.getScratch()
	z := (*zp)[:p.n/2]
	for l := lo; l < hi; l++ {
		p.r2cLine(x, rsp.lineBase(l), rsp.stride, spec, ssp.lineBase(l), ssp.stride, z)
	}
	p.putScratch(zp)
}

// c2rLines reconstructs real lines [lo, hi) of the layout.
func (p *RealPlan) c2rLines(spec []complex128, ssp batchSpec, x []float64, rsp batchSpec, lo, hi int) {
	zp := p.getScratch()
	z := (*zp)[:p.n/2]
	for l := lo; l < hi; l++ {
		p.c2rLine(spec, ssp.lineBase(l), ssp.stride, x, rsp.lineBase(l), rsp.stride, z)
	}
	p.putScratch(zp)
}

// r2cLine packs one strided real line into z, transforms, and unpacks the
// half-spectrum with the post-processing twiddles.
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
	// Unpack: split Z into the spectra of the even and odd subsequences and
	// combine with twiddles.
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
// line, inverse-transforms it (1/N scaling fused), and scatters the real
// samples.
func (p *RealPlan) c2rLine(spec []complex128, sb, ss int, x []float64, xb, xs int, z []complex128) {
	h := p.n / 2
	for k := 0; k < h; k++ {
		sk := spec[sb+k*ss]
		snk := conj(spec[sb+(h-k)*ss])
		even := half(sk + snk)
		odd := half(sk-snk) * conj(p.tw[k])
		z[k] = even + complex(0, 1)*odd
	}
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
