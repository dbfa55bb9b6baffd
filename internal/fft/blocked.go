package fft

import "fmt"

// Execution of strided batches, a group of lines at a time through a pooled
// L1-sized tile, so a column pass touches every cache line of the plane once
// per group instead of once per line. Which of two ways a group runs is a
// function of the layout and the plan, decided in runLines:
//
//   - Across rows (rows.go): where adjacent lines sit one element apart, a
//     group of w lines is already n rows of w elements, and for a power-of-two
//     length above the codelet sizes the butterflies run across the rows.
//     Nothing is transposed; the caller's array is read once and written once.
//   - Through the generic tile: every other strided group — codelet and
//     Bluestein lengths, lines that are not adjacent, an odd line left over —
//     is transposed into the tile (sequential reads, cache-resident writes),
//     transformed line by line with the contiguous kernel and transposed back,
//     the buffered strided execution of FFTW's advanced interface. Codelets
//     and Bluestein keep their own arithmetic this way, so their bits cannot
//     move.

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
// layout of cuFFT/FFTW plans (stride, dist, batch). Strided lines execute a
// group at a time (across rows or through the tile, see above); numerics are
// identical to the contiguous path (the *cost* difference of strided GPU
// kernels is modelled in internal/gpu). Lines must not share elements.
//
// Large batches are executed in parallel on a bounded worker pool shared by
// every rank goroutine of the process (see Workers); the lines of one batch
// touch disjoint elements, so results are bit-identical to serial execution.
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
// call instead of a loop of per-plane batches, so the row groups and the
// worker pool see the whole batch at once.
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
	// Checked once, here, on the caller's goroutine: past this point the
	// lines may run on pool helpers, where an index panic takes the process
	// down, and lines that share elements would race there.
	fault := ""
	if last := (sp.batch1-1)*sp.dist1 + (sp.batch2-1)*sp.dist2 + (p.n-1)*sp.stride; last >= len(data) {
		fault = fmt.Sprintf("needs %d elements", last+1)
	} else if sp.dist1 == 0 && sp.batch1 > 1 || sp.dist2 == 0 && sp.batch2 > 1 ||
		sp.dist2 == 1 && sp.stride < sp.batch2 && p.n > 1 {
		fault = "has lines that share elements"
	}
	if fault != "" {
		panic(fmt.Sprintf("fft: batch layout stride=%d dist1=%d batch1=%d dist2=%d batch2=%d %s, data has %d",
			sp.stride, sp.dist1, sp.batch1, sp.dist2, sp.batch2, fault, len(data)))
	}
	if total > 1 && total*p.n >= minParallelWork {
		if p.runBatchParallel(data, sp, dir) {
			return
		}
	}
	p.runLines(data, sp, 0, total, dir)
}

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

// rowLayout reports whether the layout's strided lines run across rows: the
// plan is a power of two above the codelet sizes, and the lines of a b1 group
// are adjacent, at least two, and disjoint (a row of batch2 lanes fits in the
// stride).
func (p *Plan) rowLayout(sp batchSpec) bool {
	return p.bluestein == nil && p.n > maxCodelet && sp.dist2 == 1 && sp.batch2 >= 2 && sp.stride >= sp.batch2
}

// runLines executes batch lines [lo, hi) of the layout. It is the unit of
// work both the serial path and the worker pool execute.
func (p *Plan) runLines(data []complex128, sp batchSpec, lo, hi int, dir Direction) {
	n := p.n
	scale := 1.0
	if dir == Inverse {
		scale = 1 / float64(n)
	}
	if sp.stride == 1 {
		switch {
		case p.bluestein != nil:
			for l := lo; l < hi; l++ {
				base := sp.lineBase(l)
				p.transformBluestein(data[base:base+n], dir)
			}
		case n <= maxCodelet:
			fwd := dir == Forward
			for l := lo; l < hi; l++ {
				base := sp.lineBase(l)
				codelet(data[base:base+n], fwd, scale)
			}
		default:
			// Hoist the ping-pong buffer out of the line loop.
			wp := p.getScratch()
			work := (*wp)[:n]
			for l := lo; l < hi; l++ {
				base := sp.lineBase(l)
				p.kernelPow2Buf(data[base:base+n], work, dir, scale)
			}
			p.putScratch(wp)
		}
		return
	}
	// Strided lines, up to tileLines at a time. Which way a group runs depends
	// on the layout (dist2, stride, batch2, the lines left in the b1 group) and
	// the plan (a power of two above maxCodelet) only: in a row layout an even
	// number of adjacent lines of one b1 group runs across rows, reading and
	// writing the caller's array in place; everything else — codelet and
	// Bluestein lengths, lines that are not adjacent, the odd line a group
	// leaves — is transposed into the tile, transformed line by line and
	// transposed back. Either way a line gets the bits of transformContig.
	tp := p.getTile()
	tile := (*tp)[:p.tileLines*n]
	var bases [maxTileLines]int
	rows := p.rowLayout(sp)
	for start := lo; start < hi; {
		m := min(hi-start, p.tileLines)
		if rows {
			m = min(m, sp.batch2-start%sp.batch2)
		}
		if rows && m >= 2 {
			m &^= 1
			p.transformRows(data[sp.lineBase(start):], tile, m, sp.stride, dir, scale)
		} else {
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

// transformLine runs batch entry b of a (stride, dist) layout — the serial
// single-line reference path used by tests and tiny batches.
func (p *Plan) transformLine(data []complex128, stride, dist, b int, dir Direction) {
	sp := batchSpec{stride: stride, batch1: 1, dist2: dist, batch2: b + 1}
	p.runLines(data, sp, b, b+1, dir)
}

func (p *Plan) getTile() *[]complex128 {
	if v := p.tile.Get(); v != nil {
		return v.(*[]complex128)
	}
	buf := make([]complex128, p.tileLines*p.n)
	return &buf
}

func (p *Plan) putTile(b *[]complex128) { p.tile.Put(b) }
