package fft

import "fmt"

// Execution of batches, a group of lines at a time through a pooled L1-sized
// tile, so a pass touches every cache line of the group once per group
// instead of once per line. Which of two ways a group runs is a function of
// the layout and the plan, decided in runLines:
//
//   - Across rows (rows.go): for a power-of-two length from 8 up, w lines of
//     a b1 group whose layout is nested (rowsNested: rows of w lanes fit in
//     the stride, as for adjacent strided lines, or whole lines fit in the
//     distance, as for contiguous ones) are n rows of w lanes, and the
//     butterflies run across the rows. Nothing is transposed; the caller's
//     array is read once and written once.
//   - Alone or through the generic tile: Bluestein lengths, the codelet
//     lengths n <= 4, lines that are not nested and the odd line a group
//     leaves. Contiguous ones run line by line in place; strided ones are
//     transposed into the tile (sequential reads, cache-resident writes),
//     transformed line by line with the contiguous kernel and transposed back,
//     the buffered strided execution of FFTW's advanced interface.

// tileElems bounds a tile to 32 KiB of complex128 so it stays L1-resident
// while its lines are transformed, except that a tile always holds two lines
// (a row group needs two); maxTileLines bounds the per-tile base array kept on
// the stack. One rule for every length: 128 points → 16 lines.
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
// a time (across rows or through the tile, see above); numerics are those of
// a single contiguous line (the *cost* difference of strided GPU kernels is
// modelled in internal/gpu). Lines must not share elements. A batch runs on
// the calling goroutine: a simulated rank is the only level of parallelism.
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
// scaling fused into the kernel's final stage.
func (p *Plan) transformContig(data []complex128, dir Direction) {
	if p.bluestein == nil {
		scale := 1.0
		if dir == Inverse {
			scale = 1 / float64(p.n)
		}
		p.kernelPow2(data, dir, scale)
		return
	}
	p.transformBluestein(data, dir)
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
	n, total := p.n, sp.total()
	scale := 1.0
	if dir == Inverse {
		scale = 1 / float64(n)
	}
	pitch, lane, rows := p.rowLayout(sp)
	if sp.stride == 1 && !rows {
		// Codelet and Bluestein lengths, and b1 groups of one line.
		for l := 0; l < total; l++ {
			line := data[sp.lineBase(l):][:n]
			if p.bluestein != nil {
				p.transformBluestein(line, dir)
			} else {
				p.kernelPow2(line, dir, scale)
			}
		}
		return
	}
	// Up to tileLines lines at a time. Which way a group runs depends on the
	// layout (stride, dist2, batch2, the lines left in the b1 group) and the
	// plan (a power of two of at least 8 points) only: in a row layout an even
	// number of lines of one b1 group runs across rows, reading and writing
	// the caller's array in place; the odd line a group leaves runs alone if
	// it is contiguous, with the tile as its work buffer; everything else —
	// strided codelet and Bluestein lengths, lines that are not nested, a
	// strided odd line — is transposed into the tile, transformed line by
	// line and transposed back. Either way a line gets the bits of
	// transformContig.
	tp := p.getTile()
	tile := (*tp)[:p.tileLines*n]
	var bases [maxTileLines]int
	for start := 0; start < total; {
		m := min(total-start, p.tileLines)
		if rows {
			m = min(m, sp.batch2-start%sp.batch2)
		}
		switch {
		case rows && m >= 2:
			m &^= 1
			d := data[sp.lineBase(start):]
			p.transformRows(d, pitch, lane, d, pitch, lane, tile, m, dir, scale)
		case sp.stride == 1:
			base := sp.lineBase(start)
			p.kernelPow2Buf(data[base:base+n], tile[:n], dir, scale)
		default:
			for l := 0; l < m; l++ {
				bases[l] = sp.lineBase(start + l)
			}
			packTile(tile, data, bases[:m], n, sp.stride)
			for l := 0; l < m; l++ {
				p.transformContig(tile[l*n:(l+1)*n], dir)
			}
			scatterTile(data, tile, bases[:m], n, sp.stride)
		}
		start += m
	}
	p.putTile(tp)
}

// packTile transposes m strided lines into the contiguous tile. The loop
// order walks the element index outermost so that, in the dominant column
// layouts (adjacent lines one element apart), the reads sweep memory
// sequentially while the writes land in the cache-resident tile.
func packTile(tile, data []complex128, bases []int, n, stride int) {
	for i := 0; i < n; i++ {
		off := i * stride
		ti := tile[i:]
		for l, b := range bases {
			ti[l*n] = data[b+off]
		}
	}
}

// scatterTile is the inverse transpose: tile lines back to strided layout.
func scatterTile(data, tile []complex128, bases []int, n, stride int) {
	for i := 0; i < n; i++ {
		off := i * stride
		ti := tile[i:]
		for l, b := range bases {
			data[b+off] = ti[l*n]
		}
	}
}

func (p *Plan) getTile() *[]complex128 {
	if v := p.tile.Get(); v != nil {
		return v.(*[]complex128)
	}
	buf := make([]complex128, p.tileLines*p.n)
	return &buf
}

func (p *Plan) putTile(b *[]complex128) { p.tile.Put(b) }
