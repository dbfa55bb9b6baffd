package tensor

import (
	"fmt"
	"sort"
)

// ProcGrid describes a 3-D grid of processes: Dims[d] processes along axis d.
// A pencil grid has Dims[a]==1 along the pencil axis a; a slab grid has two
// axes equal to 1.
type ProcGrid struct {
	Dims [3]int
}

// NewProcGrid returns the grid p0×p1×p2, validating positivity.
func NewProcGrid(p0, p1, p2 int) ProcGrid {
	if p0 < 1 || p1 < 1 || p2 < 1 {
		panic(fmt.Sprintf("tensor: invalid process grid %d×%d×%d", p0, p1, p2))
	}
	return ProcGrid{Dims: [3]int{p0, p1, p2}}
}

// Size reports the total number of processes in the grid.
func (g ProcGrid) Size() int { return g.Dims[0] * g.Dims[1] * g.Dims[2] }

func (g ProcGrid) String() string {
	return fmt.Sprintf("(%d, %d, %d)", g.Dims[0], g.Dims[1], g.Dims[2])
}

// Coord returns the 3-D coordinate of rank r in the grid. Ranks are laid out
// row-major: axis 0 slowest, axis 2 fastest, matching the box layout.
func (g ProcGrid) Coord(r int) [3]int {
	d1, d2 := g.Dims[1], g.Dims[2]
	return [3]int{r / (d1 * d2), (r / d2) % d1, r % d2}
}

// chunk returns the half-open range [lo,hi) of indices owned by part i of p
// equal-as-possible parts of n. The first n%p parts get the extra element,
// matching common MPI block distributions.
func chunk(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	if i < rem {
		lo = i * (base + 1)
		return lo, lo + base + 1
	}
	lo = rem*(base+1) + (i-rem)*base
	return lo, lo + base
}

// Decompose splits the global grid of extents n over the process grid g,
// returning one box per rank (in grid rank order). Every point belongs to
// exactly one box.
func (g ProcGrid) Decompose(n [3]int) []Box3 {
	boxes := make([]Box3, g.Size())
	for r := range boxes {
		c := g.Coord(r)
		var b Box3
		for d := 0; d < 3; d++ {
			b.Lo[d], b.Hi[d] = chunk(n[d], g.Dims[d], c[d])
		}
		boxes[r] = b
	}
	return boxes
}

// PencilGrid returns the process grid for pencils along the given axis with a
// 2-D P×Q decomposition of the two remaining axes (in increasing axis order).
// E.g. PencilGrid(0, 4, 6) == (1, 4, 6): pencils along axis 0.
func PencilGrid(axis, p, q int) ProcGrid {
	switch axis {
	case 0:
		return NewProcGrid(1, p, q)
	case 1:
		return NewProcGrid(p, 1, q)
	case 2:
		return NewProcGrid(p, q, 1)
	}
	panic(fmt.Sprintf("tensor: invalid pencil axis %d", axis))
}

// SlabGrid returns the process grid for slabs distributed along the given
// axis: all other axes undivided. E.g. SlabGrid(0, 8) == (8, 1, 1) gives each
// rank full 2-D planes over axes 1 and 2.
func SlabGrid(axis, p int) ProcGrid {
	g := [3]int{1, 1, 1}
	g[axis] = p
	return ProcGrid{Dims: g}
}

// factorizations3 enumerates all ordered triples (a,b,c) with a·b·c == n.
func factorizations3(n int) [][3]int {
	var out [][3]int
	for a := 1; a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := 1; b <= m; b++ {
			if m%b != 0 {
				continue
			}
			out = append(out, [3]int{a, b, m / b})
		}
	}
	return out
}

// MinSurfaceGrid returns the process grid of size nprocs whose local bricks
// for a global grid of extents n have minimal surface area — the
// load-balancing heuristic ("minimum-surface splitting") used by LAMMPS-like
// applications to choose input/output brick grids. Ties break toward the
// lexicographically smallest dims for determinism.
func MinSurfaceGrid(nprocs int, n [3]int) ProcGrid {
	if nprocs < 1 {
		panic(fmt.Sprintf("tensor: invalid process count %d", nprocs))
	}
	cands := factorizations3(nprocs)
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	best := cands[0]
	bestSurf := -1
	for _, c := range cands {
		// Surface of the (largest) local brick under this factorization.
		s0 := ceilDiv(n[0], c[0])
		s1 := ceilDiv(n[1], c[1])
		s2 := ceilDiv(n[2], c[2])
		surf := 2 * (s0*s1 + s1*s2 + s0*s2)
		if bestSurf < 0 || surf < bestSurf {
			bestSurf = surf
			best = c
		}
	}
	return ProcGrid{Dims: best}
}

// Square2D returns the most square P×Q factorization of nprocs (P <= Q),
// used as the default pencil grid.
func Square2D(nprocs int) (p, q int) {
	p = 1
	for f := 1; f*f <= nprocs; f++ {
		if nprocs%f == 0 {
			p = f
		}
	}
	return p, nprocs / p
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
