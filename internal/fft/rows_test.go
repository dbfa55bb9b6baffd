package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dft"
)

// specials are planted into otherwise normal inputs: signed zeros, denormals
// and infinities, each in the real and in the imaginary component.
var specials = []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1)}

// plant overwrites count random components of x with the first kinds specials
// in turn (4: zeros and denormals only; 6: ±Inf too).
func plant(rng *rand.Rand, x []complex128, count, kinds int) {
	for k := 0; k < count; k++ {
		i, v := rng.Intn(len(x)), specials[k%kinds]
		if k/kinds%2 == 0 {
			x[i] = complex(v, imag(x[i]))
		} else {
			x[i] = complex(real(x[i]), v)
		}
	}
}

func plantedSignal(rng *rand.Rand, n, nSpecials int) []complex128 {
	x := randSignal(rng, n)
	plant(rng, x, nSpecials, len(specials))
	return x
}

// sameBits reports the first index where a and b differ in any bit, NaNs
// compared as NaN-ness only (which operand's payload survives is not part of
// the contract), or -1.
func sameBits(a, b []complex128) int {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a {
		if !same(real(a[i]), real(b[i])) || !same(imag(a[i]), imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestRowsBitIdentical: a line transformed across rows, through the generic
// tile, or alone carries the same bits — every plan length of the radix-4
// engine, from 8 points up; strided layouts whose b1 groups are whole row groups, ragged ones,
// ones that leave an odd line or a 2-line group, and single lines; contiguous
// layouts at distance n and n+3, plain and nested, whose groups are ragged or
// leave an odd line; both directions; zeros, denormals and infinities planted.
func TestRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	layouts := []struct{ b1, b2 int }{{1, 16}, {1, 256}, {16, 16}, {3, 15}, {1, 7}, {2, 2}, {5, 1}}
	// Contiguous: a single row group, ragged ones with and without an odd
	// line, and nested groups that each end in an odd line.
	contigLayouts := []struct{ b1, b2 int }{{1, 2}, {1, 3}, {1, 17}, {1, 33}, {3, 17}}
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		p := NewPlan(n)
		line := make([]complex128, n)
		for li, lay := range layouts {
			if raceEnabled && n > 512 && lay.b1*lay.b2 > 64 {
				continue // the detector makes the large arrays slow; the long lines keep the small layouts
			}
			// The middle-axis layout of a b1×n×b2 array; every other one with
			// rows wider than the batch.
			stride := lay.b2 + li%2*3
			sp := batchSpec{stride: stride, dist1: n * stride, batch1: lay.b1, dist2: 1, batch2: lay.b2}
			if _, _, got := p.rowLayout(sp); got != (lay.b2 >= 2) {
				t.Fatalf("n=%d layout %v: rowLayout = %v, want %v", n, lay, got, !got)
			}
			for _, dir := range []Direction{Forward, Inverse} {
				for _, kinds := range []int{4, 6} {
					x := randSignal(rng, lay.b1*n*stride)
					if kinds == 4 {
						plant(rng, x, 2*sp.total(), kinds)
					} else {
						plant(rng, x, sp.total()/2+1, kinds) // most lines stay finite
					}
					rows := append([]complex128(nil), x...)
					p.TransformNested(rows, stride, sp.dist1, lay.b1, 1, lay.b2, dir)

					// The same lines as single-line groups: not a row layout,
					// so runLines takes them through the generic tile.
					tiled := append([]complex128(nil), x...)
					for g := 0; g < lay.b1; g++ {
						p.runLines(tiled[g*sp.dist1:], batchSpec{stride: stride, dist1: 1, batch1: lay.b2, batch2: 1}, dir)
					}

					alone := append([]complex128(nil), x...)
					for l := 0; l < sp.total(); l++ {
						base := sp.lineBase(l)
						for i := range line {
							line[i] = alone[base+i*stride]
						}
						p.transformContig(line, dir)
						for i := range line {
							alone[base+i*stride] = line[i]
						}
					}

					for _, o := range []struct {
						name string
						got  []complex128
					}{{"generic tile", tiled}, {"line by line", alone}} {
						if i := sameBits(rows, o.got); i >= 0 {
							t.Fatalf("n=%d layout %v stride %d %v kinds=%d: rows[%d] = %v, %s %v",
								n, lay, stride, dir, kinds, i, rows[i], o.name, o.got[i])
						}
					}
				}
			}
		}
		for _, lay := range contigLayouts {
			for _, pad := range []int{0, 3} {
				if raceEnabled && n > 512 && lay.b1*lay.b2 > 17 {
					continue
				}
				dist := n + pad
				sp := batchSpec{stride: 1, dist1: lay.b2*dist + 5, batch1: lay.b1, dist2: dist, batch2: lay.b2}
				if pitch, lane, ok := p.rowLayout(sp); !ok || pitch != 1 || lane != dist {
					t.Fatalf("n=%d layout %v dist %d: rowLayout = (%d, %d, %v), want (1, %d, true)", n, lay, dist, pitch, lane, ok, dist)
				}
				for _, dir := range []Direction{Forward, Inverse} {
					x := randSignal(rng, (lay.b1-1)*sp.dist1+lay.b2*dist)
					plant(rng, x, 2*sp.total(), 4)
					plant(rng, x, sp.total()/2+1, len(specials))
					rows := append([]complex128(nil), x...)
					p.TransformNested(rows, 1, sp.dist1, lay.b1, dist, lay.b2, dir)

					alone := append([]complex128(nil), x...)
					for l := 0; l < sp.total(); l++ {
						base := sp.lineBase(l)
						p.transformContig(alone[base:base+n], dir)
					}
					if i := sameBits(rows, alone); i >= 0 {
						t.Fatalf("n=%d contiguous %v dist %d %v: rows[%d] = %v, line by line %v",
							n, lay, dist, dir, i, rows[i], alone[i])
					}
				}
			}
		}
	}
}

// TestSmallPowersRunAcrossRows: 8-, 16- and 32-point lines take the row path
// in every nested layout — adjacent strided lines, the middle axis of a 3-D
// array, contiguous lines at distance n and padded — while the codelet length
// 4 and a Bluestein length do not.
func TestSmallPowersRunAcrossRows(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		p := NewPlan(n)
		for _, c := range []struct {
			name        string
			sp          batchSpec
			pitch, lane int
		}{
			{"strided", batchSpec{stride: 24, batch1: 1, dist2: 1, batch2: 24}, 24, 1},
			{"middle axis", batchSpec{stride: 16, dist1: n * 16, batch1: 8, dist2: 1, batch2: 16}, 16, 1},
			{"contiguous", batchSpec{stride: 1, batch1: 1, dist2: n, batch2: 64}, 1, n},
			{"contiguous padded", batchSpec{stride: 1, dist1: 9 * (n + 5), batch1: 3, dist2: n + 5, batch2: 9}, 1, n + 5},
		} {
			if pitch, lane, ok := p.rowLayout(c.sp); !ok || pitch != c.pitch || lane != c.lane {
				t.Errorf("n=%d %s: rowLayout = (%d, %d, %v), want (%d, %d, true)", n, c.name, pitch, lane, ok, c.pitch, c.lane)
			}
		}
	}
	for _, n := range []int{4, 12} {
		if _, _, ok := NewPlan(n).rowLayout(batchSpec{stride: 16, batch1: 1, dist2: 1, batch2: 16}); ok {
			t.Errorf("n=%d: rowLayout accepts a length without a twiddled pass", n)
		}
	}
}

// TestTransform3DRowGroupsMatchDFT checks a 3-D transform whose strided axes
// use both first row stages (quads for 64, pairs for 128) and whose axis-1
// groups end in a 2-line group (18 = 16 + 2) against the O(n²) oracle.
func TestTransform3DRowGroupsMatchDFT(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerics; the O(n²) oracle is slow under the detector")
	}
	const n0, n1, n2 = 64, 128, 18
	x := randSignal(rand.New(rand.NewSource(44)), n0*n1*n2)
	want := dft.Transform3D(x, n0, n1, n2)
	got := append([]complex128(nil), x...)
	Transform3D(got, n0, n1, n2, Forward)
	if d := maxAbsDiff(got, want); d > tol*n0*n1*n2 {
		t.Errorf("forward differs from the DFT oracle by %g", d)
	}
	Transform3D(got, n0, n1, n2, Inverse)
	if d := maxAbsDiff(got, x); d > tol {
		t.Errorf("round trip differs by %g", d)
	}
}
