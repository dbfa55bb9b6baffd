package fft

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dft"
)

// Tests for the power-of-two engine: the size ladder, the fused
// radix-4 passes (even and odd log2), the blocked strided tile path, the
// nested guru-style layout, and the fused inverse scaling — each validated
// against the O(n²) DFT oracle or a line-by-line reference.

// pow2Ladder covers every codelet (1..4) and every radix-4 pass shape the
// engine has, from one twiddled pass at 8 and 16 points: even log2 (first stage radix-4) and odd log2 (radix-2 fix-up),
// up to the largest single-line size the pencil pipeline uses.
var pow2Ladder = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

func TestKernelLadderMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range pow2Ladder {
		x := randSignal(rng, n)
		want := dft.Transform(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).transformContig(got, Forward)
		if d := maxAbsDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: forward kernel differs from DFT oracle by %g", n, d)
		}
	}
}

func TestKernelLadderInverseMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range pow2Ladder {
		x := randSignal(rng, n)
		want := dft.Inverse(x)
		got := append([]complex128(nil), x...)
		NewPlan(n).transformContig(got, Inverse)
		if d := maxAbsDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: fused-scale inverse differs from DFT oracle by %g", n, d)
		}
	}
}

func TestKernelLadderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range pow2Ladder {
		x := randSignal(rng, n)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.transformContig(got, Forward)
		p.transformContig(got, Inverse)
		if d := maxAbsDiff(got, x); d > tol*float64(n) {
			t.Errorf("n=%d: inverse(forward(x)) differs from x by %g", n, d)
		}
	}
}

func TestKernelLadderParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range pow2Ladder {
		x := randSignal(rng, n)
		var ein float64
		for _, v := range x {
			ein += real(v)*real(v) + imag(v)*imag(v)
		}
		NewPlan(n).transformContig(x, Forward)
		var eout float64
		for _, v := range x {
			eout += real(v)*real(v) + imag(v)*imag(v)
		}
		eout /= float64(n)
		if math.Abs(ein-eout) > tol*float64(n)*(1+ein) {
			t.Errorf("n=%d: Parseval violated: in=%g out=%g", n, ein, eout)
		}
	}
}

// TestBluesteinLengthsMatchDFT exercises the chirp-z path for the awkward
// lengths the paper's shape sweeps hit (primes, prime powers, highly
// composite), including ones whose power-of-two sub-transform is 8 to 32
// points long and ones whose sub-transform is longer.
func TestBluesteinLengthsMatchDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{3, 5, 7, 11, 13, 17, 33, 45, 97, 121, 125, 243, 331, 500, 729} {
		x := randSignal(rng, n)
		want := dft.Transform(x)
		got := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.transformContig(got, Forward)
		if d := maxAbsDiff(got, want); d > tol*float64(n) {
			t.Errorf("n=%d: Bluestein forward differs from DFT oracle by %g", n, d)
		}
		p.transformContig(got, Inverse)
		if d := maxAbsDiff(got, x); d > tol*float64(n) {
			t.Errorf("n=%d: Bluestein round trip differs by %g", n, d)
		}
	}
}

// TestBlockedStridedMatchesContiguous checks that a strided batch, across rows
// or through the tile, is bit-identical to transforming each line
// contiguously: layouts cross
// tile boundaries (batch > tileLines), leave a ragged final tile, and include
// Bluestein lines and short power-of-two lines.
func TestBlockedStridedMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	cases := []struct{ n, batch int }{
		{8, 100},   // rows, one over a tile with a ragged remainder
		{32, 65},   // rows, an odd line left over
		{64, 96},   // radix-4, three tiles
		{128, 33},  // odd log2, ragged
		{256, 256}, // full column pass
		{60, 70},   // Bluestein lines in tiles
	}
	for _, tc := range cases {
		// Column layout: stride = batch, adjacent lines 1 apart.
		data := randSignal(rng, tc.n*tc.batch)
		want := append([]complex128(nil), data...)
		p := NewPlan(tc.n)
		line := make([]complex128, tc.n)
		for b := 0; b < tc.batch; b++ {
			for i := 0; i < tc.n; i++ {
				line[i] = want[b+i*tc.batch]
			}
			p.transformContig(line, Forward)
			for i := 0; i < tc.n; i++ {
				want[b+i*tc.batch] = line[i]
			}
		}
		p.TransformBatch(data, tc.batch, 1, tc.batch, Forward)
		for i := range data {
			if data[i] != want[i] {
				t.Fatalf("n=%d batch=%d: blocked strided result differs from contiguous at %d", tc.n, tc.batch, i)
			}
		}
	}
}

// TestTransformBatchMatchesLineByLine holds a whole batch, run in one call on
// the calling goroutine, to the same lines run one call each, bit for bit:
// contiguous, strided and Bluestein layouts of hundreds of lines, and a short
// batch of long strided lines; both directions. SetWorkers stays a no-op.
func TestTransformBatchMatchesLineByLine(t *testing.T) {
	if got := SetWorkers(4); got != 1 {
		t.Fatalf("SetWorkers(4) = %d, want 1", got)
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, stride, dist, batch int }{
		{64, 1, 64, 512},
		{64, 512, 1, 512},
		{60, 1, 60, 512},
		{60, 300, 1, 300},
		{128, 128, 16384, 16},
	} {
		p := NewPlan(tc.n)
		for _, dir := range []Direction{Forward, Inverse} {
			data := randSignal(rng, tc.dist*(tc.batch-1)+tc.stride*(tc.n-1)+1)
			alone := append([]complex128(nil), data...)
			for b := 0; b < tc.batch; b++ {
				p.TransformBatch(alone[b*tc.dist:], tc.stride, tc.dist, 1, dir)
			}
			p.TransformBatch(data, tc.stride, tc.dist, tc.batch, dir)
			if i := sameBits(data, alone); i >= 0 {
				t.Fatalf("%+v %v: batch[%d] = %v, line by line %v", tc, dir, i, data[i], alone[i])
			}
		}
	}
}

// TestBlockedStridedRoundTrip drives forward∘inverse through the strided tile
// path (fused 1/N in the tile kernel) and requires the identity.
func TestBlockedStridedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, tc := range []struct{ n, batch int }{{64, 80}, {128, 128}, {60, 50}} {
		data := randSignal(rng, tc.n*tc.batch)
		orig := append([]complex128(nil), data...)
		p := NewPlan(tc.n)
		p.TransformBatch(data, tc.batch, 1, tc.batch, Forward)
		p.TransformBatch(data, tc.batch, 1, tc.batch, Inverse)
		if d := maxAbsDiff(data, orig); d > tol*float64(tc.n) {
			t.Errorf("n=%d batch=%d: strided round trip differs by %g", tc.n, tc.batch, d)
		}
	}
}

// TestTransformNestedMatchesLineLoop checks the two-level guru layout against
// per-line execution for a middle-axis shape (planes × rows).
func TestTransformNestedMatchesLineLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const n0, n1, n2 = 5, 32, 12 // transform along axis 1 of an n0×n1×n2 array
	data := randSignal(rng, n0*n1*n2)
	want := append([]complex128(nil), data...)
	p := NewPlan(n1)
	// Reference: one strided line at a time.
	line := make([]complex128, n1)
	for i0 := 0; i0 < n0; i0++ {
		for i2 := 0; i2 < n2; i2++ {
			base := i0*n1*n2 + i2
			for j := 0; j < n1; j++ {
				line[j] = want[base+j*n2]
			}
			p.transformContig(line, Forward)
			for j := 0; j < n1; j++ {
				want[base+j*n2] = line[j]
			}
		}
	}
	p.TransformNested(data, n2, n1*n2, n0, 1, n2, Forward)
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("nested layout differs from line loop at %d", i)
		}
	}
}

// TestTransform3DMiddleAxisBatched pins the Transform3D collapse of the
// middle-axis plane loop into one nested batched call: results must be
// bit-identical to the per-plane loop it replaced.
func TestTransform3DMiddleAxisBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n0, n1, n2 = 6, 16, 10
	data := randSignal(rng, n0*n1*n2)
	want := append([]complex128(nil), data...)
	p := NewPlan(n1)
	// The old shape: one strided batch per i0 plane.
	for i0 := 0; i0 < n0; i0++ {
		plane := want[i0*n1*n2 : (i0+1)*n1*n2]
		p.TransformBatch(plane, n2, 1, n2, Forward)
	}
	p.TransformNested(data, n2, n1*n2, n0, 1, n2, Forward)
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("single nested call differs from per-plane loop at %d", i)
		}
	}
}

// TestSingleLineSteadyStateAllocs: a warmed plan's Forward/Inverse of one
// line allocates nothing — the ping-pong buffer comes from the plan pool.
func TestSingleLineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; allocation counts are meaningless")
	}
	for _, n := range []int{16, 64, 256, 1024, 60} {
		p := NewPlan(n)
		data := make([]complex128, n)
		run := func() {
			p.transformContig(data, Forward)
			p.transformContig(data, Inverse)
		}
		run() // warm the pools
		if avg := testing.AllocsPerRun(50, run); avg >= 1 {
			t.Errorf("n=%d: Transform allocates %.2f times per call in steady state", n, avg)
		}
	}
}

// TestNestedSteadyStateAllocs: the blocked tile path of a nested middle-axis
// batch allocates nothing once the tile pool is warm.
func TestNestedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; allocation counts are meaningless")
	}
	const n0, n1, n2 = 4, 64, 24
	p := NewPlan(n1)
	data := make([]complex128, n0*n1*n2)
	run := func() { p.TransformNested(data, n2, n1*n2, n0, 1, n2, Forward) }
	run()
	if avg := testing.AllocsPerRun(50, run); avg >= 1 {
		t.Errorf("TransformNested allocates %.2f times per call in steady state", avg)
	}
}

// TestBadLayoutPanicsOnCaller: a layout that reaches past len(data), or any
// two of whose lines share an element (a distance of 0, adjacent lines wider
// than the stride, contiguous lines closer than n, a b1 group starting inside
// another, interleaved lines that meet), must panic with a layout message on
// the goroutine that called —
// recover() here proves it — before any line is handed to a pool helper, where
// an index panic would take the process down and shared elements would race.
// Rows with 128·256 elements are large enough to fan out.
func TestBadLayoutPanicsOnCaller(t *testing.T) {
	const short, shared = " needs ", " has lines that share elements"
	cases := []struct {
		name   string
		n, len int
		fault  string
		run    func(p *Plan, data []complex128)
	}{
		{"contiguous", 128, 128*256 - 4096, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 128, 256, Forward) }},
		{"contiguous/one short", 128, 128*256 - 1, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 128, 256, Inverse) }},
		{"strided", 128, 128*256 - 4096, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 256, 1, 256, Forward) }},
		{"strided/small", 64, 64*8 - 1, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 8, 1, 8, Forward) }},
		{"codelet", 4, 4*16 - 1, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 4, 16, Forward) }},
		{"bluestein", 60, 60*300 - 1, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 300, 1, 300, Forward) }},
		{"nested", 64, 8*64*48 - 1, short, func(p *Plan, d []complex128) { p.TransformNested(d, 48, 64*48, 8, 1, 48, Forward) }},
		{"nested/contiguous", 128, 16*16*128 - 128, short, func(p *Plan, d []complex128) { p.TransformNested(d, 1, 16*128, 16, 128, 16, Inverse) }},
		{"empty", 64, 0, short, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 64, 1, Forward) }},
		{"shared/stride below batch", 64, 64 * 8, shared, func(p *Plan, d []complex128) { p.TransformBatch(d, 4, 1, 8, Forward) }},
		{"shared/stride below batch, fans out", 128, 128 * 256, shared, func(p *Plan, d []complex128) { p.TransformBatch(d, 128, 1, 256, Forward) }},
		{"shared/dist 0", 128, 128 * 256, shared, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 0, 256, Inverse) }},
		{"shared/nested dist1 0", 64, 8 * 64 * 48, shared, func(p *Plan, d []complex128) { p.TransformNested(d, 48, 0, 8, 1, 48, Forward) }},
		{"shared/unit stride, dist below n", 128, 128 * 40, shared, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 64, 40, Forward) }},
		{"shared/unit stride, dist below n, fans out", 128, 128 * 256, shared, func(p *Plan, d []complex128) { p.TransformBatch(d, 1, 100, 256, Inverse) }},
		{"shared/nested dist1 inside a b1 group", 64, 8 * 64 * 48, shared, func(p *Plan, d []complex128) { p.TransformNested(d, 48, 24*48, 8, 1, 48, Forward) }},
		{"shared/interleaved", 3, 9, shared, func(p *Plan, d []complex128) { p.TransformBatch(d, 2, 4, 2, Forward) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "fft: batch layout ") || !strings.Contains(msg, tc.fault) || !strings.HasSuffix(msg, ", data has "+itoa(tc.len)) {
					t.Errorf("recovered %q, want the fft batch-layout panic", msg)
				}
			}()
			tc.run(NewPlan(tc.n), make([]complex128, tc.len))
			t.Error("no panic")
		})
	}
	// The exact extent is accepted, and so are a single line at any distance,
	// single elements side by side and interleaved lines that never meet.
	NewPlan(64).TransformNested(make([]complex128, 8*64*48), 48, 64*48, 8, 1, 48, Forward)
	NewPlan(64).TransformBatch(make([]complex128, 64), 1, 0, 1, Forward)
	NewPlan(1).TransformBatch(make([]complex128, 8), 1, 1, 8, Forward)
	NewPlan(3).TransformBatch(make([]complex128, 8), 2, 3, 2, Forward)
}

// TestSharesElementsExact holds sharesElements to counting every element of
// every line, over all small layouts: the rule rejects exactly the layouts
// whose lines meet.
func TestSharesElementsExact(t *testing.T) {
	seen := make([]int, 0, 256)
	for n := 1; n <= 4; n++ {
		for stride := 1; stride <= 5; stride++ {
			for dist2 := 0; dist2 <= 9; dist2++ {
				for batch2 := 1; batch2 <= 4; batch2++ {
					for dist1 := 0; dist1 <= 13; dist1++ {
						for batch1 := 1; batch1 <= 3; batch1++ {
							sp := batchSpec{stride: stride, dist1: dist1, batch1: batch1, dist2: dist2, batch2: batch2}
							seen = seen[:0]
							want := false
							for l := 0; l < sp.total(); l++ {
								for i := 0; i < n; i++ {
									e := sp.lineBase(l) + i*stride
									for len(seen) <= e {
										seen = append(seen, 0)
									}
									seen[e]++
									want = want || seen[e] > 1
								}
							}
							if got := sp.sharesElements(n); got != want {
								t.Fatalf("n=%d %+v: sharesElements = %v, want %v", n, sp, got, want)
							}
						}
					}
				}
			}
		}
	}
}
