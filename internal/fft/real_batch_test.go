package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dft"
)

// Tests for the batched advanced-layout real transforms (cuFFT D2Z/Z2D
// style): every line of a strided batch must match the complex DFT oracle
// applied to that line, layouts are validated, and the pooled scratch keeps
// the steady state allocation-free.

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestRealForwardBatchMatchesOracle lays out `batch` real lines with
// non-trivial strides and distances on both sides and checks each
// half-spectrum against the complex oracle.
func TestRealForwardBatchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		n, xStride, xDist, sStride, sDist, batch int
	}{
		{16, 1, 16, 1, 9, 8},    // packed rows (the r2c pencil layout)
		{16, 2, 1, 1, 9, 4},     // interleaved real lines
		{32, 1, 40, 2, 40, 6},   // padded rows, strided spectra
		{12, 3, 2, 1, 7, 2},     // overlapping-looking but disjoint layout
		{64, 1, 64, 1, 33, 100}, // batch large enough to fan out
	} {
		p, err := NewRealPlan(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		h := tc.n / 2
		xLen := (tc.batch-1)*tc.xDist + (tc.n-1)*tc.xStride + 1
		sLen := (tc.batch-1)*tc.sDist + h*tc.sStride + 1
		x := randReal(rng, xLen)
		spec := make([]complex128, sLen)
		if err := p.ForwardBatch(x, tc.xStride, tc.xDist, spec, tc.sStride, tc.sDist, tc.batch); err != nil {
			t.Fatalf("n=%d: ForwardBatch: %v", tc.n, err)
		}
		for b := 0; b < tc.batch; b++ {
			line := make([]complex128, tc.n)
			for i := 0; i < tc.n; i++ {
				line[i] = complex(x[b*tc.xDist+i*tc.xStride], 0)
			}
			want := dft.Transform(line)
			for k := 0; k <= h; k++ {
				got := spec[b*tc.sDist+k*tc.sStride]
				if d := cmplx.Abs(got - want[k]); d > tol*float64(tc.n) {
					t.Fatalf("n=%d batch line %d bin %d: got %v want %v (diff %g)", tc.n, b, k, got, want[k], d)
				}
			}
		}
	}
}

// TestRealBatchRoundTrip checks InverseBatch(ForwardBatch(x)) == x across
// layouts, including the zBox pencil layout core/realplan uses.
func TestRealBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct {
		n, xStride, xDist, sStride, sDist, batch int
	}{
		{16, 1, 16, 1, 9, 12},
		{32, 2, 70, 1, 17, 5},
		{128, 1, 128, 1, 65, 64},
	} {
		p, err := NewRealPlan(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		h := tc.n / 2
		xLen := (tc.batch-1)*tc.xDist + (tc.n-1)*tc.xStride + 1
		sLen := (tc.batch-1)*tc.sDist + h*tc.sStride + 1
		x := randReal(rng, xLen)
		orig := append([]float64(nil), x...)
		spec := make([]complex128, sLen)
		if err := p.ForwardBatch(x, tc.xStride, tc.xDist, spec, tc.sStride, tc.sDist, tc.batch); err != nil {
			t.Fatal(err)
		}
		if err := p.InverseBatch(spec, tc.sStride, tc.sDist, x, tc.xStride, tc.xDist, tc.batch); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if d := x[i] - orig[i]; d > tol*float64(tc.n) || d < -tol*float64(tc.n) {
				t.Fatalf("n=%d: round trip diverged at %d by %g", tc.n, i, d)
			}
		}
	}
}

// TestRealBatchMatchesLineByLine holds whole real batches of hundreds of
// lines to the same lines run one call each, bit for bit, both directions:
// row layouts (packed, and padded with strided spectra and a ragged last
// group) and a strided one that runs line by line.
func TestRealBatchMatchesLineByLine(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, tc := range []struct {
		n, xStride, xDist, sStride, sDist, batch int
	}{
		{64, 1, 64, 1, 33, 512},
		{128, 1, 130, 2, 131, 301},
		{64, 512, 1, 1, 33, 512},
	} {
		p, err := NewRealPlan(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.acrossRows(batchSpec{stride: tc.xStride, batch1: 1, dist2: tc.xDist, batch2: tc.batch}), tc.xStride == 1; got != want {
			t.Fatalf("%+v: acrossRows = %v, want %v", tc, got, want)
		}
		xLen := (tc.batch-1)*tc.xDist + (tc.n-1)*tc.xStride + 1
		sLen := (tc.batch-1)*tc.sDist + tc.n/2*tc.sStride + 1
		x := randReal(rng, xLen)
		spec := make([]complex128, sLen)
		back := make([]float64, xLen)
		if err := p.ForwardBatch(x, tc.xStride, tc.xDist, spec, tc.sStride, tc.sDist, tc.batch); err != nil {
			t.Fatal(err)
		}
		if err := p.InverseBatch(spec, tc.sStride, tc.sDist, back, tc.xStride, tc.xDist, tc.batch); err != nil {
			t.Fatal(err)
		}
		specAlone := make([]complex128, sLen)
		backAlone := make([]float64, xLen)
		for b := 0; b < tc.batch; b++ {
			xb, sb := b*tc.xDist, b*tc.sDist
			if err := p.ForwardBatch(x[xb:], tc.xStride, tc.xDist, specAlone[sb:], tc.sStride, tc.sDist, 1); err != nil {
				t.Fatal(err)
			}
			if err := p.InverseBatch(spec[sb:], tc.sStride, tc.sDist, backAlone[xb:], tc.xStride, tc.xDist, 1); err != nil {
				t.Fatal(err)
			}
		}
		if i := sameBits(spec, specAlone); i >= 0 {
			t.Fatalf("%+v: R2C batch differs from line by line at %d", tc, i)
		}
		if i := sameRealBits(back, backAlone); i >= 0 {
			t.Fatalf("%+v: C2R batch differs from line by line at %d", tc, i)
		}
	}
}

// sameRealBits is sameBits for real values.
func sameRealBits(a, b []float64) int {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// TestRealRowsBitIdentical: real lines that run across rows carry the bits of
// r2cLine and c2rLine, NaNs compared as NaN-ness only — every row length of
// the half transform from 8 points up to 256, one line, a pair, an odd count,
// one full group and a group plus a tail, packed and padded real lines,
// packed and strided spectra; clean inputs, signed zeros and subnormals (the
// first line all zeros, whose products by zero decide the signs), and ±Inf
// and NaN planted in the first line, whose group runs across rows too.
func TestRealRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	zeros := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for _, n := range []int{16, 32, 64, 128, 256, 512} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		h, tl := n/2, p.half.tileLines
		z := make([]complex128, h)
		for _, lines := range []int{1, 2, 7, tl, tl + 3} {
			for _, lay := range []struct{ xDist, ss, sDist int }{{n, 1, h + 1}, {n + 2, 2, 2*h + 3}} {
				if !p.acrossRows(batchSpec{stride: 1, batch1: 1, dist2: lay.xDist, batch2: lines}) {
					t.Fatalf("n=%d xDist=%d: real lines do not run across rows", n, lay.xDist)
				}
				xLen, sLen := lines*lay.xDist, lines*lay.sDist
				for kind, planted := range [][]float64{nil, zeros, specials} {
					// Forward.
					x := randReal(rng, xLen)
					for i, v := range planted {
						x[(i*7)%n] = v // the first line
					}
					if kind == 1 {
						for i := range x {
							if i < n || rng.Intn(4) == 0 {
								x[i] = zeros[rng.Intn(2)+i/n%2*2]
							}
						}
					}
					got := make([]complex128, sLen)
					want := make([]complex128, sLen)
					if err := p.ForwardBatch(x, 1, lay.xDist, got, lay.ss, lay.sDist, lines); err != nil {
						t.Fatal(err)
					}
					for l := range lines {
						p.r2cLine(x, l*lay.xDist, 1, want, l*lay.sDist, lay.ss, z)
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("n=%d lines=%d layout %+v kind %d: forward bin %d = %v, line by line %v", n, lines, lay, kind, i, got[i], want[i])
					}
					// Inverse, from the spectra with the same kind of values planted.
					spec := want
					for i, v := range planted {
						spec[(i*5)%(h+1)*lay.ss] = complex(v, imag(spec[i]))
					}
					if kind == 1 {
						for i := range spec {
							if i < lay.sDist {
								spec[i] = complex(zeros[rng.Intn(2)], zeros[rng.Intn(2)])
							} else if rng.Intn(4) == 0 {
								spec[i] = complex(zeros[rng.Intn(len(zeros))], imag(spec[i]))
							}
						}
					}
					gotX := make([]float64, xLen)
					wantX := make([]float64, xLen)
					if err := p.InverseBatch(spec, lay.ss, lay.sDist, gotX, 1, lay.xDist, lines); err != nil {
						t.Fatal(err)
					}
					for l := range lines {
						p.c2rLine(spec, l*lay.sDist, lay.ss, wantX, l*lay.xDist, 1, z)
					}
					if i := sameRealBits(gotX, wantX); i >= 0 {
						t.Fatalf("n=%d lines=%d layout %+v kind %d: inverse sample %d = %v, line by line %v", n, lines, lay, kind, i, gotX[i], wantX[i])
					}
				}
			}
		}
	}
}

// TestSplitMergeMatchComplexArithmetic: splitRows and mergeRows give, lane by
// lane, the bits of their formulas written with Go's complex division and
// multiply, on finite values dense in signed zeros, subnormals and large
// magnitudes.
func TestSplitMergeMatchComplexArithmetic(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, 1, -1, 0x1p1000, -0x1p1000}
	rng := rand.New(rand.NewSource(46))
	fill := func(x []complex128) {
		pick := func() float64 {
			if rng.Intn(4) == 0 {
				return rng.NormFloat64()
			}
			return finite[rng.Intn(len(finite))]
		}
		for i := range x {
			x[i] = complex(pick(), pick())
		}
	}
	conj := func(c complex128) complex128 { return complex(real(c), -imag(c)) }
	const w = 6
	for _, n := range []int{16, 64, 256} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		h := n / 2
		tile := make([]complex128, h*w)
		spec := make([]complex128, (h+1)*w)
		for trial := range 50 {
			fill(tile)
			p.splitRows(tile, w, spec, 0, 1, h+1)
			for l := range w {
				for k := 0; k <= h; k++ {
					zk, znk := tile[k%h*w+l], tile[(h-k)%h*w+l]
					want := (zk+conj(znk))/2 + p.tw[k]*((zk-conj(znk))/2i)
					if got := spec[l*(h+1)+k]; sameBits([]complex128{got}, []complex128{want}) >= 0 {
						t.Fatalf("n=%d trial %d lane %d: split bin %d = %v, complex arithmetic %v", n, trial, l, k, got, want)
					}
				}
			}
			fill(spec)
			p.mergeRows(spec, 0, 1, h+1, tile, w)
			for l := range w {
				for k := range h {
					sk, snk := spec[l*(h+1)+k], conj(spec[l*(h+1)+h-k])
					want := (sk+snk)/2 + complex(0, 1)*((sk-snk)/2*conj(p.tw[k]))
					if got := tile[k*w+l]; sameBits([]complex128{got}, []complex128{want}) >= 0 {
						t.Fatalf("n=%d trial %d lane %d: merged %d = %v, complex arithmetic %v", n, trial, l, k, got, want)
					}
				}
			}
		}
	}
}

// TestRealBatchValidation rejects layouts whose strides walk outside the
// arrays and degenerate strides.
func TestRealBatchValidation(t *testing.T) {
	p, err := NewRealPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	spec := make([]complex128, 9)
	if err := p.ForwardBatch(x, 1, 16, spec, 1, 9, 2); err == nil {
		t.Error("short real array accepted")
	}
	if err := p.ForwardBatch(x, 1, 16, spec[:8], 1, 9, 1); err == nil {
		t.Error("short spectrum array accepted")
	}
	if err := p.ForwardBatch(x, 0, 16, spec, 1, 9, 1); err == nil {
		t.Error("zero stride accepted")
	}
	if err := p.InverseBatch(spec, 1, -1, x, 1, 16, 1); err == nil {
		t.Error("negative dist accepted")
	}
	if err := p.ForwardBatch(x, 1, 16, spec, 1, 9, 0); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
	// The side a transform writes may not have two lines that share an
	// element (one line would overwrite another's output); the side it reads
	// may.
	x4 := make([]float64, 16*4)
	spec4 := make([]complex128, 9*4)
	if err := p.ForwardBatch(x4, 1, 16, spec4, 1, 1, 4); err == nil {
		t.Error("overlapping spectrum lines accepted")
	}
	if err := p.ForwardBatch(x4, 1, 16, spec4, 4, 1, 4); err != nil {
		t.Errorf("interleaved spectrum lines rejected: %v", err)
	}
	if err := p.ForwardBatch(x4, 1, 0, spec4, 1, 9, 4); err != nil {
		t.Errorf("shared real input lines rejected: %v", err)
	}
	if err := p.InverseBatch(spec4, 1, 9, x4, 1, 8, 4); err == nil {
		t.Error("overlapping real lines accepted")
	}
	if err := p.InverseBatch(spec4, 2, 1, x4, 2, 2, 2); err == nil {
		t.Error("interleaved real lines that collide accepted")
	}
	if err := p.InverseBatch(spec4, 1, 0, x4, 1, 16, 4); err != nil {
		t.Errorf("shared spectrum input lines rejected: %v", err)
	}
	p64, err := NewRealPlan(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p64.ForwardBatch(make([]float64, 64*512), 1, 64, make([]complex128, 33*512), 1, 1, 512); err == nil {
		t.Error("512 spectrum lines one element apart accepted")
	}
}

// TestRealBatchSteadyStateAllocs: warmed batched real transforms draw all
// scratch from pools.
func TestRealBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; allocation counts are meaningless")
	}
	// 8 lines of 32; 170 lines of 64 (two full row groups and a ragged one).
	for _, tc := range []struct{ n, batch int }{{32, 8}, {64, 170}} {
		n, batch := tc.n, tc.batch
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n*batch)
		spec := make([]complex128, (n/2+1)*batch)
		forward := func() {
			if err := p.ForwardBatch(x, 1, n, spec, 1, n/2+1, batch); err != nil {
				t.Fatal(err)
			}
		}
		inverse := func() {
			if err := p.InverseBatch(spec, 1, n/2+1, x, 1, n, batch); err != nil {
				t.Fatal(err)
			}
		}
		for _, run := range []struct {
			dir string
			f   func()
		}{{"forward", forward}, {"inverse", inverse}} {
			run.f() // warm the pools
			if avg := testing.AllocsPerRun(50, run.f); avg >= 1 {
				t.Errorf("%d×%d %s real batch allocates %.2f times per call in steady state", n, batch, run.dir, avg)
			}
		}
	}
}
