package core

import (
	"cmp"
	"slices"

	"repro/internal/tensor"
)

// boxIndex is a k-d tree over the non-empty boxes of a list, for finding the
// boxes that meet a query box without testing all of them. It makes no
// assumption about the list — any tiling, overlapping or not, in any order —
// and is built per analysis and dropped with it.
type boxIndex struct {
	boxes []tensor.Box3
	ids   []int    // indices of the non-empty boxes; every node owns a span of it
	nodes []kdNode // nodes[0] is the root
}

// kdNode owns ids[lo:hi], whose boxes bound covers. An inner node's children
// are nodes[left] and nodes[left+1]; left is 0 for a leaf.
type kdNode struct {
	bound        tensor.Box3
	lo, hi, left int
}

// kdLeaf is the most boxes a leaf holds.
const kdLeaf = 4

func newBoxIndex(boxes []tensor.Box3) *boxIndex {
	x := &boxIndex{boxes: boxes}
	for j, b := range boxes {
		if !b.Empty() {
			x.ids = append(x.ids, j)
		}
	}
	if len(x.ids) > 0 {
		// Leaves hold at least two boxes, so there are fewer nodes than boxes.
		x.nodes = make([]kdNode, 1, len(x.ids))
		x.build(0, 0, len(x.ids))
	}
	return x
}

// build fills node n over ids[lo:hi] and, above kdLeaf boxes, splits the span
// at the median along the axis where the box centres spread widest: on the
// axis of widest bounds a pencil list would spend levels cutting the long
// axis, which no box ends on.
func (x *boxIndex) build(n, lo, hi int) {
	ids := x.ids[lo:hi]
	bound := x.boxes[ids[0]]
	cmin, cmax := centre2(bound), centre2(bound)
	for _, j := range ids[1:] {
		b := x.boxes[j]
		c := centre2(b)
		for d := 0; d < 3; d++ {
			bound.Lo[d], bound.Hi[d] = min(bound.Lo[d], b.Lo[d]), max(bound.Hi[d], b.Hi[d])
			cmin[d], cmax[d] = min(cmin[d], c[d]), max(cmax[d], c[d])
		}
	}
	x.nodes[n] = kdNode{bound: bound, lo: lo, hi: hi}
	if len(ids) <= kdLeaf {
		return
	}
	axis := 0
	for d := 1; d < 3; d++ {
		if cmax[d]-cmin[d] > cmax[axis]-cmin[axis] {
			axis = d
		}
	}
	slices.SortFunc(ids, func(a, b int) int {
		ba, bb := &x.boxes[a], &x.boxes[b]
		return cmp.Or(cmp.Compare(ba.Lo[axis]+ba.Hi[axis], bb.Lo[axis]+bb.Hi[axis]), cmp.Compare(a, b))
	})
	left := len(x.nodes)
	x.nodes = append(x.nodes, kdNode{}, kdNode{})
	x.nodes[n].left = left
	mid := (lo + hi) / 2
	x.build(left, lo, mid)
	x.build(left+1, mid, hi)
}

// centre2 is twice a box's centre, in integers.
func centre2(b tensor.Box3) [3]int {
	return [3]int{b.Lo[0] + b.Hi[0], b.Lo[1] + b.Hi[1], b.Lo[2] + b.Hi[2]}
}

// meets reports whether two boxes share a point: Intersect(a, b) is not empty.
func meets(a, b tensor.Box3) bool {
	for d := 0; d < 3; d++ {
		if max(a.Lo[d], b.Lo[d]) >= min(a.Hi[d], b.Hi[d]) {
			return false
		}
	}
	return true
}

// query appends to dst, ascending, the indices of the boxes that meet q, and
// reports how many boxes it tested against q: node bounds and the boxes of
// the leaves whose bounds meet q.
func (x *boxIndex) query(q tensor.Box3, dst []int) ([]int, int) {
	if len(x.nodes) == 0 {
		return dst, 0
	}
	first, tested := len(dst), 0
	// Each pop pushes at most two children, so the stack never holds more
	// than the tree's depth plus one nodes; median splits keep the depth
	// below log2 of the box count.
	var stack [64]int
	for sp := 1; sp > 0; {
		sp--
		nd := &x.nodes[stack[sp]]
		tested++
		if !meets(nd.bound, q) {
			continue
		}
		if nd.left == 0 {
			for _, j := range x.ids[nd.lo:nd.hi] {
				if meets(x.boxes[j], q) {
					dst = append(dst, j)
				}
			}
			tested += nd.hi - nd.lo
			continue
		}
		stack[sp], stack[sp+1] = nd.left, nd.left+1
		sp += 2
	}
	slices.Sort(dst[first:])
	return dst, tested
}

// eachOverlap calls visit(i, j) for every pair whose boxes from[i] and to[j]
// share a point, in the order of the double loop over both lists — ascending
// i, and for each i ascending j — until visit returns false. It reports how
// many boxes the index tested; the double loop tests len(to) for every
// non-empty from[i].
func eachOverlap(from, to []tensor.Box3, visit func(i, j int) bool) (tested int) {
	x := newBoxIndex(to)
	var hits []int
	for i, q := range from {
		var n int
		hits, n = x.query(q, hits[:0])
		tested += n
		for _, j := range hits {
			if !visit(i, j) {
				return tested
			}
		}
	}
	return tested
}
