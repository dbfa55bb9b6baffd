package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// slabBoxes returns the per-rank boxes for slabs distributed along axis.
func slabBoxes(global [3]int, axis, nprocs int) []tensor.Box3 {
	return tensor.SlabGrid(axis, nprocs).Decompose(global)
}

// overlapVisit is one pair eachOverlap visits, with its intersection.
type overlapVisit struct {
	i, j int
	b    tensor.Box3
}

// naiveOverlaps is the double loop the box index replaces: every non-empty
// from[i] against every to[j], in that order.
func naiveOverlaps(from, to []tensor.Box3) []overlapVisit {
	var vs []overlapVisit
	for i := range from {
		if from[i].Empty() {
			continue
		}
		for j := range to {
			if b := tensor.Intersect(from[i], to[j]); !b.Empty() {
				vs = append(vs, overlapVisit{i, j, b})
			}
		}
	}
	return vs
}

// checkSameVisits fails unless eachOverlap visits exactly the double loop's
// sequence of (i, j, intersection).
func checkSameVisits(t *testing.T, label string, from, to []tensor.Box3) {
	t.Helper()
	want := naiveOverlaps(from, to)
	var got []overlapVisit
	eachOverlap(from, to, func(i, j int) bool {
		got = append(got, overlapVisit{i, j, tensor.Intersect(from[i], to[j])})
		return true
	})
	for k := range min(len(got), len(want)) {
		if got[k] != want[k] {
			t.Errorf("%s: visit %d is %v, the double loop's is %v", label, k, got[k], want[k])
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d visits, the double loop makes %d", label, len(got), len(want))
	}
}

// paperLists returns, for one Table III row, the distributions a plan over it
// moves between: the row's bricks, the pencils along all three axes, the
// slabs along all three axes and the minimum-surface bricks.
func paperLists(e GridEntry, global [3]int) map[string][]tensor.Box3 {
	ls := map[string][]tensor.Box3{
		"bricks":  e.InOut.Decompose(global),
		"default": DefaultBricks(e.GPUs, global),
	}
	for axis := 0; axis < 3; axis++ {
		ls[fmt.Sprintf("pencil%d", axis)] = PencilBoxes(global, axis, e.P, e.Q)
		ls[fmt.Sprintf("slab%d", axis)] = slabBoxes(global, axis, e.GPUs)
	}
	return ls
}

// tableIIIChain is the pencil plan's reshape sequence over a Table III row:
// bricks → x, y, z pencils → bricks.
func tableIIIChain(e GridEntry, global [3]int) [][2][]tensor.Box3 {
	bricks := e.InOut.Decompose(global)
	x, y, z := PencilBoxes(global, 0, e.P, e.Q), PencilBoxes(global, 1, e.P, e.Q), PencilBoxes(global, 2, e.P, e.Q)
	return [][2][]tensor.Box3{{bricks, x}, {x, y}, {y, z}, {z, bricks}}
}

// bisectTiling tiles a grid with n boxes by recursive bisection at random
// positions along random axes — no tensor product — then mixes in empty
// boxes (flat and inverted) and shuffles the list.
func bisectTiling(rng *rand.Rand, global [3]int, n int) []tensor.Box3 {
	boxes := []tensor.Box3{tensor.FullBox(global)}
	for tries := 0; len(boxes) < n && tries < 8*n; tries++ {
		k, d := rng.Intn(len(boxes)), rng.Intn(3)
		b := boxes[k]
		if b.Size(d) < 2 {
			continue
		}
		cut := b.Lo[d] + 1 + rng.Intn(b.Size(d)-1)
		lo, hi := b, b
		lo.Hi[d], hi.Lo[d] = cut, cut
		boxes[k] = lo
		boxes = append(boxes, hi)
	}
	for e := rng.Intn(4); e > 0; e-- {
		boxes = append(boxes, tensor.NewBox(1, 0, 0, 1, global[1], global[2]), tensor.NewBox(2, 2, 2, 1, 1, 1))
	}
	rng.Shuffle(len(boxes), func(a, b int) { boxes[a], boxes[b] = boxes[b], boxes[a] })
	return boxes
}

// TestBoxIndexMatchesDoubleLoop: the overlap pass visits exactly the (i, j,
// intersection) sequence of the double loop it replaced — on the paper's
// distributions at 512³ and at extents smaller than the process grids (empty
// boxes), on random non-tensor-product tilings in shuffled order, and on empty
// lists — so the reshape tables built from it are unchanged; and
// validateBoxes returns the same errors as the pairwise check it replaced.
func TestBoxIndexMatchesDoubleLoop(t *testing.T) {
	globals := [][3]int{{512, 512, 512}, {5, 7, 3}}
	for _, e := range TableIII {
		for _, global := range globals {
			if e.GPUs <= 384 {
				ls := paperLists(e, global)
				for fn, from := range ls {
					for tn, to := range ls {
						checkSameVisits(t, fmt.Sprintf("%d %v %s→%s", e.GPUs, global, fn, tn), from, to)
					}
				}
				continue
			}
			for k, pair := range tableIIIChain(e, global) {
				checkSameVisits(t, fmt.Sprintf("%d %v chain %d", e.GPUs, global, k), pair[0], pair[1])
			}
		}
	}

	rng := rand.New(rand.NewSource(29))
	for k := 0; k < 300; k++ {
		global := [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)}
		from := bisectTiling(rng, global, 1+rng.Intn(200))
		to := bisectTiling(rng, global, 1+rng.Intn(200))
		checkSameVisits(t, fmt.Sprintf("random %d %v", k, global), from, to)
		checkSameVisits(t, fmt.Sprintf("random %d %v self", k, global), to, to)
	}

	full := []tensor.Box3{tensor.FullBox([3]int{4, 4, 4})}
	allEmpty := make([]tensor.Box3, 9)
	for _, c := range []struct {
		name     string
		from, to []tensor.Box3
	}{{"nil→nil", nil, nil}, {"nil→full", nil, full}, {"full→nil", full, nil},
		{"empty→full", allEmpty, full}, {"full→empty", full, allEmpty}, {"empty→empty", allEmpty, allEmpty}} {
		checkSameVisits(t, c.name, c.from, c.to)
	}

	// validateBoxes: the first overlapping pair i < j in the double loop's
	// order, then the volume and extent checks ahead of it.
	cube16 := [3]int{16, 16, 16}
	overlapping := tensor.NewProcGrid(4, 4, 4).Decompose(cube16)
	overlapping[13], overlapping[40], overlapping[30] = overlapping[7], overlapping[7], overlapping[2]
	line := [3]int{8, 1, 1}
	x := func(lo, hi int) tensor.Box3 { return tensor.NewBox(lo, 0, 0, hi, 1, 1) }
	for _, c := range []struct {
		name   string
		global [3]int
		boxes  []tensor.Box3
		want   string
	}{
		{"tiling", cube16, tensor.NewProcGrid(4, 4, 4).Decompose(cube16), ""},
		{"three copies and a fourth pair", cube16, overlapping,
			"core: boxes 2 [0:4,0:4,8:12) and 30 [0:4,0:4,8:12) overlap"},
		{"two overlaps of box 0", line, []tensor.Box3{x(0, 3), x(6, 8), {}, x(2, 3), x(6, 7), x(0, 1)},
			"core: boxes 0 [0:3,0:1,0:1) and 3 [2:3,0:1,0:1) overlap"},
		{"gap", line, []tensor.Box3{x(0, 3), x(4, 8)}, "core: boxes cover 7 points, global grid has 8"},
		{"outside", line, []tensor.Box3{x(0, 4), x(4, 9)}, "core: box [4:9,0:1,0:1) outside global grid [8 1 1]"},
	} {
		err := validateBoxes(c.global, c.boxes)
		if got := fmt.Sprint(err); (err == nil) != (c.want == "") || (err != nil && got != c.want) {
			t.Errorf("validateBoxes %s: %v, want %q", c.name, err, c.want)
		}
	}
}

// TestPlanBuildWorkScalesWithOverlaps: at the paper's 3072 ranks, the boxes
// the index tests to build each reshape table of the Table III pencil chain,
// and to validate the brick list, are bounded by a constant per rank and per
// overlap found — where the double loop tests every pair, p² = 9.4 M per
// list, which no row's bound admits. The count is deterministic: a return
// value, not a timer.
func TestPlanBuildWorkScalesWithOverlaps(t *testing.T) {
	const perUnit = 16 // tested ≤ perUnit·(p + nnz)
	global := [3]int{512, 512, 512}
	e := LookupTableIII(3072)
	rows := tableIIIChain(e, global)
	rows = append(rows, [2][]tensor.Box3{rows[0][0], rows[0][0]}) // validateBoxes' pass over the bricks
	for k, pair := range rows {
		from, to := pair[0], pair[1]
		p, nnz := len(from), 0
		tested := eachOverlap(from, to, func(int, int) bool { nnz++; return true })
		bound, naive := perUnit*(p+nnz), p*len(to)
		t.Logf("row %d: %d boxes tested for %d ranks and %d overlaps = %.1f·(p + nnz); the double loop tests %d",
			k, tested, p, nnz, float64(tested)/float64(p+nnz), naive)
		if tested > bound {
			t.Errorf("row %d: %d boxes tested, over the bound %d·(p + nnz) = %d", k, tested, perUnit, bound)
		}
		if naive <= bound {
			t.Errorf("row %d: the double loop's %d tests fit the bound %d; the row proves nothing", k, naive, bound)
		}
	}
}

// benchTable keeps BenchmarkReshapeTable's result live.
var benchTable *reshapeTable

// BenchmarkReshapeTable times plan-build geometry at paper scale: the reshape
// tables of the Table III pencil chain at 768 and 3072 ranks, and the
// validation of the 3072-rank brick list.
func BenchmarkReshapeTable(b *testing.B) {
	global := [3]int{512, 512, 512}
	for _, ranks := range []int{768, 3072} {
		sys := topo.Default(machine.Summit(), ranks)
		chain := tableIIIChain(LookupTableIII(ranks), global)
		b.Run(fmt.Sprintf("chain/%d", ranks), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for _, pair := range chain {
					benchTable = computeReshapeTable(sys, func(r int) int { return r }, pair[0], pair[1])
				}
			}
		})
	}
	bricks := LookupTableIII(3072).InOut.Decompose(global)
	b.Run("validate/3072", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			if err := validateBoxes(global, bricks); err != nil {
				b.Fatal(err)
			}
		}
	})
}
