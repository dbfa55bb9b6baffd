// Package tensor provides the index-space machinery of the distributed FFT:
// half-open 3-D boxes, processor grids, brick/pencil/slab decompositions, the
// minimum-surface splitting heuristic used for application input grids, and
// the pack/unpack routines that move box intersections between local arrays
// and contiguous wire buffers.
//
// Convention: a global grid has extents N = [3]int{N0, N1, N2}. A local array
// covering Box3 b is stored row-major with axis 0 slowest and axis 2
// contiguous: index = ((i0-lo0)·s1 + (i1-lo1))·s2 + (i2-lo2) where
// sd = b.Size(d).
package tensor

import "fmt"

// Box3 is a half-open axis-aligned box [Lo, Hi) in 3-D index space.
type Box3 struct {
	Lo, Hi [3]int
}

// NewBox returns the box [lo0,hi0)×[lo1,hi1)×[lo2,hi2).
func NewBox(lo0, lo1, lo2, hi0, hi1, hi2 int) Box3 {
	return Box3{Lo: [3]int{lo0, lo1, lo2}, Hi: [3]int{hi0, hi1, hi2}}
}

// FullBox returns the box covering an entire global grid of extents n.
func FullBox(n [3]int) Box3 {
	return Box3{Hi: n}
}

// Size reports the extent of the box along axis d (0 if empty along d).
func (b Box3) Size(d int) int {
	s := b.Hi[d] - b.Lo[d]
	if s < 0 {
		return 0
	}
	return s
}

// Sizes returns the extents along all three axes.
func (b Box3) Sizes() [3]int {
	return [3]int{b.Size(0), b.Size(1), b.Size(2)}
}

// Volume reports the number of grid points in the box.
func (b Box3) Volume() int {
	return b.Size(0) * b.Size(1) * b.Size(2)
}

// Empty reports whether the box contains no points.
func (b Box3) Empty() bool { return b.Volume() == 0 }

// Equal reports whether two boxes cover the same points. All empty boxes are
// considered equal.
func (b Box3) Equal(o Box3) bool {
	if b.Empty() && o.Empty() {
		return true
	}
	return b == o
}

// Contains reports whether the point (i0,i1,i2) lies inside the box.
func (b Box3) Contains(i0, i1, i2 int) bool {
	return i0 >= b.Lo[0] && i0 < b.Hi[0] &&
		i1 >= b.Lo[1] && i1 < b.Hi[1] &&
		i2 >= b.Lo[2] && i2 < b.Hi[2]
}

// ContainsBox reports whether o is fully inside b. An empty o is contained in
// anything.
func (b Box3) ContainsBox(o Box3) bool {
	if o.Empty() {
		return true
	}
	return Intersect(b, o).Equal(o)
}

// Index returns the local row-major linear index of the global point
// (i0,i1,i2), which must lie inside the box.
func (b Box3) Index(i0, i1, i2 int) int {
	s1, s2 := b.Size(1), b.Size(2)
	return ((i0-b.Lo[0])*s1+(i1-b.Lo[1]))*s2 + (i2 - b.Lo[2])
}

func (b Box3) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d,%d:%d)", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}

// Intersect returns the intersection of two boxes (possibly empty).
func Intersect(a, b Box3) Box3 {
	var r Box3
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(a.Lo[d], b.Lo[d])
		r.Hi[d] = min(a.Hi[d], b.Hi[d])
		if r.Hi[d] < r.Lo[d] {
			r.Hi[d] = r.Lo[d]
		}
	}
	return r
}
