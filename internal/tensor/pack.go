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
