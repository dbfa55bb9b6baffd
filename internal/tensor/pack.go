package tensor

import (
	"fmt"
	"unsafe"
)

// Pack copies the points of sub (which must lie inside own) from the local
// array src (laid out for box own) into the contiguous buffer dst, enumerated
// in global row-major order of sub. dst must have length sub.Volume() and
// share no memory with src. It is generic so both complex grids and real
// (float64) grids — the input of real-to-complex transforms, which travel at
// half the bytes — share one implementation: a CopyBox into the buffer laid
// out over sub itself.
//
// This is the CPU realization of the GPU packing kernels of Algorithm 1
// ("Pack data in contiguous memory"); its device cost is modelled by
// internal/gpu.
func Pack[T any](src []T, own, sub Box3, dst []T) {
	CopyBox(dst, sub, src, own, sub)
}

// Unpack is the inverse of Pack: it scatters the contiguous buffer src
// (enumerating sub in global row-major order) into the local array dst laid
// out for box own.
func Unpack[T any](dst []T, own, sub Box3, src []T) {
	CopyBox(dst, own, src, sub, sub)
}

// CopyBox copies the points of sub (which must lie inside both boxes) out of
// the local array src, laid out for box srcOwn, into the local array dst, laid
// out for box dstOwn: Unpack(dst, dstOwn, sub, Pack(src, srcOwn, sub)) without
// the buffer in between, so every element crosses memory once. Each copy is the
// longest run that is contiguous in both layouts. dst and src must not share
// memory.
func CopyBox[T any](dst []T, dstOwn Box3, src []T, srcOwn, sub Box3) {
	checkPackArgs(len(dst), dstOwn, sub, sub.Volume())
	checkPackArgs(len(src), srcOwn, sub, sub.Volume())
	if sub.Empty() {
		return
	}
	d, s, size := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0])), unsafe.Sizeof(src[0])
	if d < s+uintptr(len(src))*size && s < d+uintptr(len(dst))*size {
		panic("tensor: CopyBox between arrays that share memory")
	}
	fold := min(foldOf(dstOwn, sub), foldOf(srcOwn, sub))
	copyRuns(dst, runsAt(dstOwn, sub, fold), src, runsAt(srcOwn, sub, fold))
}

// copyRuns copies run for run between two placements of the same n0 × n1 runs
// of run elements, and reports how many runs that was. complex128 and float64
// hold no pointers, so the kernel (useSSE2) may store them without write
// barriers: it copies the whole block in one call, with the source and
// destination lines of the runs a fixed distance ahead prefetched
// (prefetchLead). Otherwise each run is one copy.
func copyRuns[T any](dst []T, d runs, src []T, s runs) (copies int) {
	if d.n0*d.n1*d.run == 0 {
		return 0
	}
	switch any((*T)(nil)).(type) {
	case *complex128, *float64:
		if !useSSE2 {
			break
		}
		// The kernel checks no bounds: slicing to the last run's end does.
		dst = dst[d.base : d.base+(d.n0-1)*d.st0+(d.n1-1)*d.st1+d.run]
		src = src[s.base : s.base+(d.n0-1)*s.st0+(d.n1-1)*s.st1+d.run]
		copyBlock(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), d, s, int(unsafe.Sizeof(dst[0])))
		return d.n0 * d.n1
	}
	for i0 := 0; i0 < d.n0; i0++ {
		da, sa := d.base+i0*d.st0, s.base+i0*s.st0
		for i1 := 0; i1 < d.n1; i1++ {
			copy(dst[da:da+d.run], src[sa:sa+d.run])
			da += d.st1
			sa += s.st1
		}
		copies += d.n1
	}
	return copies
}

// runs is where a non-empty sub-box sits in the local array of own: n0 × n1
// runs of run contiguous elements, the first at base, st0 and st1 apart.
type runs struct{ base, n0, st0, n1, st1, run int }

// foldOf is how far rows of sub that are adjacent in the local array of own
// fold into one run: 0 keeps the rows apart, 1 makes a plane's rows one run
// (sub spans own's whole axis 2: a pencil-x → pencil-y pack), 2 the whole
// sub-box (it spans axis 1 as well: a brick → pencil-x unpack).
func foldOf(own, sub Box3) int {
	switch {
	case sub.Size(2) != own.Size(2):
		return 0
	case sub.Size(1) != own.Size(1):
		return 1
	}
	return 2
}

// runsAt places sub in the local array of own with its rows folded to the
// given level, which must not exceed foldOf(own, sub).
func runsAt(own, sub Box3, fold int) runs {
	o1, o2 := own.Size(1), own.Size(2)
	r := runs{base: own.Index(sub.Lo[0], sub.Lo[1], sub.Lo[2]),
		n0: sub.Size(0), st0: o1 * o2, n1: sub.Size(1), st1: o2, run: sub.Size(2)}
	if fold >= 1 {
		r.run, r.n1 = r.run*r.n1, 1
	}
	if fold == 2 {
		r.run, r.n0 = r.run*r.n0, 1
	}
	return r
}

func checkPackArgs(localLen int, own, sub Box3, bufLen int) {
	if !own.ContainsBox(sub) {
		panic(fmt.Sprintf("tensor: sub-box %v not inside own box %v", sub, own))
	}
	if localLen != own.Volume() {
		panic(fmt.Sprintf("tensor: local array length %d != own volume %d", localLen, own.Volume()))
	}
	if bufLen != sub.Volume() {
		panic(fmt.Sprintf("tensor: buffer length %d != sub volume %d", bufLen, sub.Volume()))
	}
}

// reorderBlock is the tile edge of the blocked transpose loops: a
// reorderBlock² complex128 tile (16 KiB) keeps both the gather and scatter
// footprints cache-resident while one of the two sides streams sequentially.
const reorderBlock = 32

// Reorder copies the points of box b from a local array laid out with the
// default axis order into dst laid out with axes permuted so that perm[2] is
// contiguous. It is used by the "transposed/contiguous" local-FFT path, where
// data is reorganized so the FFT axis has unit stride. perm must be a
// permutation of {0,1,2}.
//
// The copy is cache-blocked: whichever permuted loop walks the source's
// unit-stride axis is tiled against the innermost (destination-contiguous)
// loop, the same square-tile transpose the GPU packing kernels of the paper
// use to keep global-memory accesses coalesced.
func Reorder(src []complex128, b Box3, perm [3]int, dst []complex128) {
	if len(src) != b.Volume() || len(dst) != b.Volume() {
		panic(fmt.Sprintf("tensor: Reorder length mismatch src=%d dst=%d vol=%d", len(src), len(dst), b.Volume()))
	}
	checkPerm(perm)
	s := b.Sizes()
	as := [3]int{s[1] * s[2], s[2], 1}
	n0, n1, n2 := s[perm[0]], s[perm[1]], s[perm[2]]
	st0, st1, st2 := as[perm[0]], as[perm[1]], as[perm[2]]
	switch {
	case st2 == 1:
		// perm keeps axis 2 innermost: both sides are contiguous rows.
		copyRuns(dst, runs{n0: n0, st0: n1 * n2, n1: n1, st1: n2, run: n2}, src, runs{n0: n0, st0: st0, n1: n1, st1: st1, run: n2})
	case st1 == 1:
		// Middle loop walks the source's contiguous axis: tile (j1, j2).
		for j0 := 0; j0 < n0; j0++ {
			b0 := j0 * st0
			d0 := j0 * n1 * n2
			for j1b := 0; j1b < n1; j1b += reorderBlock {
				j1e := min(j1b+reorderBlock, n1)
				for j2b := 0; j2b < n2; j2b += reorderBlock {
					j2e := min(j2b+reorderBlock, n2)
					for j1 := j1b; j1 < j1e; j1++ {
						bi := b0 + j1
						di := d0 + j1*n2
						for j2 := j2b; j2 < j2e; j2++ {
							dst[di+j2] = src[bi+j2*st2]
						}
					}
				}
			}
		}
	default:
		// Outermost loop walks the source's contiguous axis: tile (j0, j2)
		// with j1 carried through the tile.
		for j0b := 0; j0b < n0; j0b += reorderBlock {
			j0e := min(j0b+reorderBlock, n0)
			for j2b := 0; j2b < n2; j2b += reorderBlock {
				j2e := min(j2b+reorderBlock, n2)
				for j1 := 0; j1 < n1; j1++ {
					b1 := j1 * st1
					for j0 := j0b; j0 < j0e; j0++ {
						bi := b1 + j0
						di := (j0*n1 + j1) * n2
						for j2 := j2b; j2 < j2e; j2++ {
							dst[di+j2] = src[bi+j2*st2]
						}
					}
				}
			}
		}
	}
}

// ReorderBack is the inverse of Reorder: it scatters dst-ordered data back to
// the default axis order. That is Reorder itself, out of the permuted layout
// (extents s[perm[0]], s[perm[1]], s[perm[2]]) by the inverse permutation, so
// it is cache-blocked the same way.
func ReorderBack(src []complex128, b Box3, perm [3]int, dst []complex128) {
	checkPerm(perm)
	var inv [3]int
	var permuted Box3
	for k, p := range perm {
		inv[p] = k
		permuted.Hi[k] = b.Size(p)
	}
	Reorder(src, permuted, inv, dst)
}

func checkPerm(perm [3]int) {
	seen := [3]bool{}
	for _, p := range perm {
		if p < 0 || p > 2 || seen[p] {
			panic(fmt.Sprintf("tensor: invalid axis permutation %v", perm))
		}
		seen[p] = true
	}
}
