package fft

import "fmt"

// Blocked execution of strided batches. The old engine gathered one strided
// line at a time into scratch, so a column pass touched every cache line of
// the plane once per transformed line. The blocked path instead transposes a
// tile of adjacent lines into a contiguous pooled buffer (sequential reads,
// cache-resident writes), transforms the tile line by line with the
// contiguous kernel, and transposes back — the buffered/blocked strided
// execution strategy of FFTW's advanced interface and cuFFT's batched
// layouts, realized on the host.

// tileElems bounds a tile to 32 KiB of complex128 so it stays L1-resident
// while its lines are transformed; maxTileLines bounds the per-tile base
// array kept on the stack.
const (
	tileElems    = 2048
	maxTileLines = 64
)

func tileLinesFor(n int) int {
	return min(max(tileElems/n, 1), maxTileLines)
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
// layout of cuFFT/FFTW plans (stride, dist, batch). Strided lines execute
// through the blocked tile path; numerics are identical to the contiguous
// path (the *cost* difference of strided GPU kernels is modelled in
// internal/gpu).
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
// call instead of a loop of per-plane batches, so the blocked tile engine
// and the worker pool see the whole batch at once.
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
	// down.
	if last := (sp.batch1-1)*sp.dist1 + (sp.batch2-1)*sp.dist2 + (p.n-1)*sp.stride; last >= len(data) {
		panic(fmt.Sprintf("fft: batch layout stride=%d dist1=%d batch1=%d dist2=%d batch2=%d needs %d elements, data has %d",
			sp.stride, sp.dist1, sp.batch1, sp.dist2, sp.batch2, last+1, len(data)))
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

// runLines executes batch lines [lo, hi) of the layout: directly for unit
// stride, through tile transposes otherwise. It is the unit of work both the
// serial path and the worker pool execute.
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
	tp := p.getTile()
	tile := (*tp)[:p.tileLines*n]
	var bases [maxTileLines]int
	// Tabulated power-of-two lines let the pack gather in bit-reversed order,
	// so the permutation rides the transpose for free and the kernel runs
	// in place on the tile.
	revGather := p.bluestein == nil && n > maxCodelet
	for start := lo; start < hi; start += p.tileLines {
		m := min(hi-start, p.tileLines)
		for l := 0; l < m; l++ {
			bases[l] = sp.lineBase(start + l)
		}
		if revGather {
			packTileRev(tile, data, bases[:m], n, sp.stride, p.rev)
			for l := 0; l < m; l++ {
				p.kernelPermuted(tile[l*n:(l+1)*n], dir, scale)
			}
		} else {
			packTile(tile, data, bases[:m], n, sp.stride)
			for l := 0; l < m; l++ {
				p.transformContig(tile[l*n:(l+1)*n], dir)
			}
		}
		scatterTile(data, tile, bases[:m], n, sp.stride)
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

// packTileRev is packTile with the bit-reversal permutation folded into the
// gather: tile line l receives data line l in bit-reversed element order, so
// the kernel's reordering pass costs nothing extra on the strided path.
func packTileRev(tile, data []complex128, bases []int, n, stride int, rev []int32) {
	for i := 0; i < n; i++ {
		off := int(rev[i]) * stride
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
