package core

import (
	"fmt"
	"sort"

	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// GridEntry is one row of Table III: the brick-shaped input/output grid used
// for a GPU count (obtained by minimum-surface splitting, the shape real
// applications hand to the library) and the P×Q pencil grid of the FFT
// stages.
type GridEntry struct {
	GPUs  int
	InOut tensor.ProcGrid // blue grids of Table III (input and output bricks)
	P, Q  int             // black pencil grids: (1,P,Q), (P,1,Q), (P,Q,1)
}

// TableIII is the paper's grid sequence for the strong-scalability
// experiments on 1–512 Summit nodes (6 GPUs per node, 1 MPI rank per GPU).
var TableIII = []GridEntry{
	{GPUs: 6, InOut: tensor.NewProcGrid(1, 2, 3), P: 2, Q: 3},
	{GPUs: 12, InOut: tensor.NewProcGrid(2, 2, 3), P: 3, Q: 4},
	{GPUs: 24, InOut: tensor.NewProcGrid(2, 3, 4), P: 4, Q: 6},
	{GPUs: 48, InOut: tensor.NewProcGrid(3, 4, 4), P: 6, Q: 8},
	{GPUs: 96, InOut: tensor.NewProcGrid(4, 4, 6), P: 8, Q: 12},
	{GPUs: 192, InOut: tensor.NewProcGrid(4, 6, 8), P: 12, Q: 16},
	{GPUs: 384, InOut: tensor.NewProcGrid(6, 8, 8), P: 16, Q: 24},
	{GPUs: 768, InOut: tensor.NewProcGrid(8, 8, 12), P: 24, Q: 32},
	{GPUs: 1536, InOut: tensor.NewProcGrid(16, 8, 12), P: 32, Q: 48},
	{GPUs: 3072, InOut: tensor.NewProcGrid(16, 12, 16), P: 48, Q: 64},
}

// LookupTableIII returns the Table III entry for a GPU count, or a synthetic
// entry (minimum-surface bricks, most-square pencils) for counts not in the
// table.
func LookupTableIII(gpus int) GridEntry {
	i := sort.Search(len(TableIII), func(i int) bool { return TableIII[i].GPUs >= gpus })
	if i < len(TableIII) && TableIII[i].GPUs == gpus {
		return TableIII[i]
	}
	p, q := tensor.Square2D(gpus)
	return GridEntry{GPUs: gpus, InOut: tensor.MinSurfaceGrid(gpus, [3]int{512, 512, 512}), P: p, Q: q}
}

// DefaultBricks returns the minimum-surface brick decomposition of a global
// grid over nprocs ranks — the shape applications such as LAMMPS produce.
func DefaultBricks(nprocs int, global [3]int) []tensor.Box3 {
	return tensor.MinSurfaceGrid(nprocs, global).Decompose(global)
}

// PencilBoxes returns the per-rank boxes for pencils along the given axis
// with the grid P×Q over the remaining axes — useful for handing the library
// pencil-shaped input/output directly (skipping the brick reshape).
func PencilBoxes(global [3]int, axis, p, q int) []tensor.Box3 {
	return tensor.PencilGrid(axis, p, q).Decompose(global)
}

// dist is one data distribution of a plan — a box per rank of its
// communicator — in world-shared form: every rank of the world holds the same
// immutable list, and the content hash that keys the analyses over it (box
// validation, reshape tables) is computed once per list instead of once per
// rank per use.
type dist struct {
	boxes []tensor.Box3
	hash  uint64
}

// derivedDist returns the world's one copy of a decomposition the plan
// builders derive. Such a list is a pure function of its parameters, which
// key names in full: the first rank to ask computes it (padded with empty
// boxes to size ranks — distributions over fewer active ranks leave the rest
// idle), every other rank shares it.
func derivedDist(c *mpisim.Comm, key string, build func() []tensor.Box3) *dist {
	size := c.Size()
	return c.World().Shared(fmt.Sprintf("core/dist/%s/%d", key, size), func() any {
		boxes := build()
		if len(boxes) < size {
			padded := make([]tensor.Box3, size)
			copy(padded, boxes)
			boxes = padded
		}
		return &dist{boxes: boxes, hash: hashBoxes(boxes)}
	}).(*dist)
}

// gridDist is the shared decomposition of a global grid over a process grid.
func gridDist(c *mpisim.Comm, global [3]int, g tensor.ProcGrid) *dist {
	return derivedDist(c, fmt.Sprintf("grid/%v/%v", global, g.Dims), func() []tensor.Box3 { return g.Decompose(global) })
}

// callerDist returns the world's one copy of a caller-supplied distribution.
// Ranks may hand in separate but equal lists, so each hashes its own — the
// only per-rank pass over a list — and the first rank's (copied: the caller
// keeps its slice) becomes the one every rank plans from.
func callerDist(c *mpisim.Comm, boxes []tensor.Box3) *dist {
	h := hashBoxes(boxes)
	return c.World().Shared(fmt.Sprintf("core/dist/caller/%x", h), func() any {
		return &dist{boxes: append([]tensor.Box3(nil), boxes...), hash: h}
	}).(*dist)
}

// inOutDists resolves and validates a plan's input and output distributions:
// the caller's lists, or the minimum-surface bricks of the respective grid
// when nil; each must tile its grid with one box per rank.
func inOutDists(c *mpisim.Comm, in, out []tensor.Box3, inGlobal, outGlobal [3]int) (din, dout *dist, err error) {
	size := c.Size()
	if (in != nil && len(in) != size) || (out != nil && len(out) != size) {
		return nil, nil, fmt.Errorf("core: %w: got %d in / %d out boxes for %d ranks", ErrMismatchedBoxes, len(in), len(out), size)
	}
	resolve := func(boxes []tensor.Box3, global [3]int) *dist {
		if boxes == nil {
			return derivedDist(c, fmt.Sprintf("bricks/%v", global), func() []tensor.Box3 { return DefaultBricks(size, global) })
		}
		return callerDist(c, boxes)
	}
	din, dout = resolve(in, inGlobal), resolve(out, outGlobal)
	if err := validateDist(c, inGlobal, din); err != nil {
		return nil, nil, fmt.Errorf("core: %w: input boxes: %w", ErrMismatchedBoxes, err)
	}
	if err := validateDist(c, outGlobal, dout); err != nil {
		return nil, nil, fmt.Errorf("core: %w: output boxes: %w", ErrMismatchedBoxes, err)
	}
	return din, dout, nil
}

// sameDist reports whether two distributions assign every rank the same
// points (all empty boxes alike, as Box3.Equal has it). Distinct lists are
// compared once per world.
func sameDist(c *mpisim.Comm, a, b *dist) bool {
	if a == b {
		return true
	}
	return c.World().Shared(fmt.Sprintf("core/dist-equal/%x/%x", a.hash, b.hash), func() any {
		return boxesEqual(a.boxes, b.boxes)
	}).(bool)
}

// validateDist checks that a distribution tiles the global grid, once per
// world, not once per rank.
func validateDist(c *mpisim.Comm, global [3]int, d *dist) error {
	err, _ := c.World().Shared(fmt.Sprintf("core/validate/%v/%x", global, d.hash), func() any {
		return validateBoxes(global, d.boxes)
	}).(error)
	return err
}

// validateBoxes checks that boxes tile the global grid exactly: every point
// covered exactly once.
func validateBoxes(global [3]int, boxes []tensor.Box3) error {
	vol := 0
	for _, b := range boxes {
		vol += b.Volume()
		for d := 0; d < 3; d++ {
			if b.Lo[d] < 0 || b.Hi[d] > global[d] {
				return fmt.Errorf("core: box %v outside global grid %v", b, global)
			}
		}
	}
	want := global[0] * global[1] * global[2]
	if vol != want {
		return fmt.Errorf("core: boxes cover %d points, global grid has %d", vol, want)
	}
	// Disjointness: the first overlapping pair i < j in the double loop's
	// order, found through the box index (a box always meets itself).
	var err error
	eachOverlap(boxes, boxes, func(i, j int) bool {
		if j <= i {
			return true
		}
		err = fmt.Errorf("core: boxes %d %v and %d %v overlap", i, boxes[i], j, boxes[j])
		return false
	})
	return err
}
