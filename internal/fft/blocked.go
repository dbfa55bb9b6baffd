package fft

import "fmt"

// Execution of batches, a group of lines at a time, so a pass touches every
// cache line of the group once per group instead of once per line. How a
// line runs is a function of the layout and the plan only, decided in
// runLines:
//
//   - Power-of-two lengths from 8 up run on the row engine (rows.go). w lines
//     of a b1 group whose layout is nested (rowsNested: rows of w lanes fit in
//     the stride, as for adjacent strided lines, or whole lines fit in the
//     distance, as for contiguous ones) are n rows of w lanes, and the
//     butterflies run across the rows. The odd line each b1 group leaves when
//     batch2 is odd (the only one when batch2 is 1) sits dist1 from the next
//     group's with the same stride; where those lines nest (lane = dist1)
//     they run as one more sweep across rows. Every other line — an odd one
//     left over, or a line of a layout whose lines do not nest — runs alone,
//     in place at (pitch = stride, lane = 0): a group of two lanes that are
//     the same line. Nothing is transposed; the caller's array is read once
//     and written once.
//   - Bluestein lengths chirp a group of lines into the lanes of the
//     convolution buffer and run both power-of-two sub-transforms across its
//     rows (fft.go).
//   - The codelet lengths n <= 4 gather each line into a 4-element array,
//     transform it and scatter it back.

// tileElems bounds a tile to 32 KiB of complex128 so it stays L1-resident
// while its lines are transformed, except that a tile always holds two lines
// (a row group needs two); maxTileLines bounds the per-group base array a
// Bluestein group keeps on the stack. One rule for every length: 128 points →
// 16 lines.
const (
	tileElems    = 2048
	maxTileLines = 64
)

func tileLinesFor(n int) int {
	return min(max(tileElems/n, 2), maxTileLines)
}

// batchSpec is a guru-style two-loop batch layout: line (b1, b2) starts at
// b1·dist1 + b2·dist2 and strides by stride within the line. A plain
// (stride, dist, batch) layout is the special case batch1 == 1.
type batchSpec struct {
	stride        int
	dist1, batch1 int
	dist2, batch2 int
}

func (sp batchSpec) total() int { return sp.batch1 * sp.batch2 }

func (sp batchSpec) lineBase(l int) int {
	if sp.batch1 == 1 {
		return l * sp.dist2
	}
	return (l/sp.batch2)*sp.dist1 + (l%sp.batch2)*sp.dist2
}

// TransformBatch computes batch transforms of length p.N() over data laid out
// with the given element stride within one transform and distance dist between
// the first elements of consecutive transforms. This matches the advanced
// layout of cuFFT/FFTW plans (stride, dist, batch). Lines execute a group at
// a time (see above); numerics are those of a single contiguous line (the
// *cost* difference of strided GPU kernels is modelled in internal/gpu).
// Lines must not share elements. A batch runs on the calling goroutine: a
// simulated rank is the only level of parallelism.
func (p *Plan) TransformBatch(data []complex128, stride, dist, batch int, dir Direction) {
	if stride < 1 || dist < 0 || batch < 0 {
		panic(fmt.Sprintf("fft: invalid batch layout stride=%d dist=%d batch=%d", stride, dist, batch))
	}
	p.runBatch(data, batchSpec{stride: stride, batch1: 1, dist2: dist, batch2: batch}, dir)
}

// TransformNested computes batch1·batch2 transforms over a two-level nested
// layout: line (b1, b2) starts at b1·dist1 + b2·dist2, with elements stride
// apart. This is the howmany_dims shape of FFTW's guru interface; it lets a
// middle-axis pass of a 3-D transform (planes × rows) run as ONE batched
// call instead of a loop of per-plane batches, so the row groups see the
// whole batch at once.
func (p *Plan) TransformNested(data []complex128, stride, dist1, batch1, dist2, batch2 int, dir Direction) {
	if stride < 1 || dist1 < 0 || dist2 < 0 || batch1 < 0 || batch2 < 0 {
		panic(fmt.Sprintf("fft: invalid nested layout stride=%d dist1=%d batch1=%d dist2=%d batch2=%d",
			stride, dist1, batch1, dist2, batch2))
	}
	p.runBatch(data, batchSpec{stride: stride, dist1: dist1, batch1: batch1, dist2: dist2, batch2: batch2}, dir)
}

func (p *Plan) runBatch(data []complex128, sp batchSpec, dir Direction) {
	total := sp.total()
	if total == 0 {
		return
	}
	// Checked once, here, before any line runs: a layout that overruns data
	// would otherwise panic halfway through the batch, and lines that share
	// an element would read each other's outputs.
	fault := ""
	if last := (sp.batch1-1)*sp.dist1 + (sp.batch2-1)*sp.dist2 + (p.n-1)*sp.stride; last >= len(data) {
		fault = fmt.Sprintf("needs %d elements", last+1)
	} else if sp.sharesElements(p.n) {
		fault = "has lines that share elements"
	}
	if fault != "" {
		panic(fmt.Sprintf("fft: batch layout stride=%d dist1=%d batch1=%d dist2=%d batch2=%d %s, data has %d",
			sp.stride, sp.dist1, sp.batch1, sp.dist2, sp.batch2, fault, len(data)))
	}
	p.runLines(data, sp, dir)
}

// SetWorkers ignores n and returns 1: a batch runs on the goroutine that
// calls it, and each simulated rank is one goroutine, so there is no worker
// count to bound. It stays for the benchmark harness, which pins its kernel
// replays to one goroutine with SetWorkers(1).
func SetWorkers(n int) int { return 1 }

// transformContig transforms one contiguous line with the inverse 1/N
// scaling fused into the kernel's final stage: a batch of one line.
func (p *Plan) transformContig(data []complex128, dir Direction) {
	p.runLines(data[:p.n], batchSpec{stride: 1, batch1: 1, batch2: 1}, dir)
}

// outScale is the output scaling of a transform: 1/N for the inverse.
func (p *Plan) outScale(dir Direction) float64 {
	if dir == Inverse {
		return 1 / float64(p.n)
	}
	return 1
}

// sharesElements reports whether two lines of the layout share an element:
// whether i·stride + b2·dist2 + b1·dist1 (i < n, b2 < batch2, b1 < batch1)
// takes some value twice — the elements of one line are distinct, stride
// being positive. Nested layouts, every one this module builds, are settled
// in constant time; any other searches the differences of the two shortest
// dimensions, at most total^(2/3) steps. It allocates nothing.
func (sp batchSpec) sharesElements(n int) bool {
	type dim struct{ c, e int } // coefficient, extent
	d := [3]dim{{sp.stride, n}, {sp.dist2, sp.batch2}, {sp.dist1, sp.batch1}}
	sort3 := func(less func(a, b dim) bool) {
		for i := 1; i < 3; i++ {
			for j := i; j > 0 && less(d[j], d[j-1]); j-- {
				d[j], d[j-1] = d[j-1], d[j]
			}
		}
	}
	// Nested: by increasing coefficient, each dimension steps past the span of
	// the ones below it.
	sort3(func(a, b dim) bool { return a.c < b.c })
	span, nested := 0, true
	for _, x := range d {
		if x.e > 1 {
			nested = nested && x.c > span
			span += x.c * (x.e - 1)
		}
	}
	if nested {
		return false
	}
	// Otherwise look for a nonzero difference (δ0, δ1, δ2), |δk| < ek, with
	// Σ ck·δk = 0, by increasing extent: δ0 >= 0 and δ1 run, δ2 follows.
	sort3(func(a, b dim) bool { return a.e < b.e })
	for _, x := range d {
		if x.c == 0 && x.e > 1 {
			return true
		}
	}
	if d[2].e < 2 {
		return false // one line of one element
	}
	for d0 := 0; d0 < d[0].e; d0++ {
		from := 1 - d[1].e
		if d0 == 0 {
			from = 1 // δ and −δ are the same pair of elements
		}
		for d1 := from; d1 < d[1].e; d1++ {
			if r := d[0].c*d0 + d[1].c*d1; r%d[2].c == 0 && r/d[2].c < d[2].e && -r/d[2].c < d[2].e {
				return true
			}
		}
	}
	// δ0 = δ1 = 0 needs c2·δ2 = 0, which no δ2 ≠ 0 solves.
	return false
}

// rowLayout reports whether the lines of the layout run across rows, and at
// which (pitch, lane): the plan is a power of two of at least 8 points, a
// b1 group holds at least two lines, and they are nested (rowsNested) with
// pitch = stride and lane = dist2. Adjacent strided lines are (stride, 1),
// contiguous ones (1, dist2).
func (p *Plan) rowLayout(sp batchSpec) (pitch, lane int, ok bool) {
	ok = p.bluestein == nil && p.n > maxCodelet && sp.batch2 >= 2 && sp.dist2 >= 1 &&
		rowsNested(p.n, sp.batch2, sp.stride, sp.dist2)
	return sp.stride, sp.dist2, ok
}

// runLines executes every line of the layout.
func (p *Plan) runLines(data []complex128, sp batchSpec, dir Direction) {
	switch {
	case p.bluestein != nil:
		p.bluesteinLines(data, sp, dir)
		return
	case p.n <= maxCodelet:
		p.codeletLines(data, sp, dir)
		return
	}
	// An odd batch2 leaves one line per b1 group — the only one when batch2
	// is 1. Those lines sit dist1 apart with the same stride: when that
	// layout runs across rows (lane = dist1), they run as one more sweep
	// after the even part of every group.
	if sp.batch1 >= 2 && sp.batch2%2 == 1 {
		odd := batchSpec{stride: sp.stride, batch1: 1, dist2: sp.dist1, batch2: sp.batch1}
		if _, _, ok := p.rowLayout(odd); ok {
			if sp.batch2 > 1 {
				even := sp
				even.batch2--
				p.runLines(data, even, dir)
			}
			p.runLines(data[(sp.batch2-1)*sp.dist2:], odd, dir)
			return
		}
	}
	// Up to tileLines lines of one b1 group at a time, an even number of them,
	// across rows in a row layout; any other line alone, at lane 0. Either way
	// a line gets the bits of transformContig.
	scale, total := p.outScale(dir), sp.total()
	pitch, lane, rows := p.rowLayout(sp)
	tp := p.getTile()
	for l := 0; l < total; {
		d := data[sp.lineBase(l):]
		if w := min(total-l, p.tileLines, sp.batch2-l%sp.batch2) &^ 1; rows && w >= 2 {
			p.transformRows(d, pitch, lane, d, pitch, lane, *tp, w, dir, scale)
			l += w
			continue
		}
		p.transformRows(d, sp.stride, 0, d, sp.stride, 0, *tp, 2, dir, scale)
		l++
	}
	p.putTile(tp)
}

// codeletLines runs every line of a codelet length through a 4-element array:
// gathered, transformed, scattered back.
func (p *Plan) codeletLines(data []complex128, sp batchSpec, dir Direction) {
	var buf [maxCodelet]complex128
	line, scale := buf[:p.n], p.outScale(dir)
	for l := 0; l < sp.total(); l++ {
		d := data[sp.lineBase(l):]
		for i := range line {
			line[i] = d[i*sp.stride]
		}
		codelet(line, dir == Forward, scale)
		for i, v := range line {
			d[i*sp.stride] = v
		}
	}
}

func (p *Plan) getTile() *[]complex128 {
	if v := p.tile.Get(); v != nil {
		return v.(*[]complex128)
	}
	buf := make([]complex128, p.tileLen)
	return &buf
}

func (p *Plan) putTile(b *[]complex128) { p.tile.Put(b) }
