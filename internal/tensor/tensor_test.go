package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox(1, 2, 3, 4, 6, 9)
	if got := b.Sizes(); got != [3]int{3, 4, 6} {
		t.Errorf("Sizes = %v, want [3 4 6]", got)
	}
	if b.Volume() != 72 {
		t.Errorf("Volume = %d, want 72", b.Volume())
	}
	if b.Empty() {
		t.Error("box should not be empty")
	}
	if !b.Contains(1, 2, 3) || b.Contains(4, 2, 3) || b.Contains(0, 2, 3) {
		t.Error("Contains misclassifies boundary points")
	}
}

func TestBoxIndexRowMajor(t *testing.T) {
	b := NewBox(2, 3, 4, 5, 7, 10)
	want := 0
	for i0 := b.Lo[0]; i0 < b.Hi[0]; i0++ {
		for i1 := b.Lo[1]; i1 < b.Hi[1]; i1++ {
			for i2 := b.Lo[2]; i2 < b.Hi[2]; i2++ {
				if got := b.Index(i0, i1, i2); got != want {
					t.Fatalf("Index(%d,%d,%d) = %d, want %d", i0, i1, i2, got, want)
				}
				want++
			}
		}
	}
}

func TestIntersect(t *testing.T) {
	a := NewBox(0, 0, 0, 4, 4, 4)
	b := NewBox(2, 2, 2, 6, 6, 6)
	got := Intersect(a, b)
	if !got.Equal(NewBox(2, 2, 2, 4, 4, 4)) {
		t.Errorf("Intersect = %v", got)
	}
	// Disjoint boxes intersect to empty.
	c := NewBox(10, 10, 10, 12, 12, 12)
	if !Intersect(a, c).Empty() {
		t.Error("disjoint intersection not empty")
	}
}

// Property: intersection is commutative, contained in both operands, and
// idempotent.
func TestIntersectProperties(t *testing.T) {
	gen := func(seed int64) (Box3, Box3) {
		rng := rand.New(rand.NewSource(seed))
		rb := func() Box3 {
			var b Box3
			for d := 0; d < 3; d++ {
				b.Lo[d] = rng.Intn(10)
				b.Hi[d] = b.Lo[d] + rng.Intn(10)
			}
			return b
		}
		return rb(), rb()
	}
	f := func(seed int64) bool {
		a, b := gen(seed)
		ab := Intersect(a, b)
		ba := Intersect(b, a)
		return ab.Equal(ba) &&
			a.ContainsBox(ab) && b.ContainsBox(ab) &&
			Intersect(ab, ab).Equal(ab) &&
			Intersect(a, a).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChunkCoversExactly(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for p := 1; p <= 10; p++ {
			prev := 0
			for i := 0; i < p; i++ {
				lo, hi := chunk(n, p, i)
				if lo != prev {
					t.Fatalf("chunk(%d,%d,%d): lo=%d want %d", n, p, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("chunk(%d,%d,%d): hi<lo", n, p, i)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("chunk(%d,%d): union ends at %d", n, p, prev)
			}
		}
	}
}

func TestDecomposePartition(t *testing.T) {
	n := [3]int{8, 9, 10}
	g := NewProcGrid(2, 3, 2)
	boxes := g.Decompose(n)
	if len(boxes) != 12 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	// Every global point in exactly one box.
	count := make([]int, n[0]*n[1]*n[2])
	for _, b := range boxes {
		for i0 := b.Lo[0]; i0 < b.Hi[0]; i0++ {
			for i1 := b.Lo[1]; i1 < b.Hi[1]; i1++ {
				for i2 := b.Lo[2]; i2 < b.Hi[2]; i2++ {
					count[(i0*n[1]+i1)*n[2]+i2]++
				}
			}
		}
	}
	for i, c := range count {
		if c != 1 {
			t.Fatalf("point %d covered %d times", i, c)
		}
	}
}

func TestGridCoordRankRoundTrip(t *testing.T) {
	g := NewProcGrid(3, 4, 5)
	for r := 0; r < g.Size(); r++ {
		c := g.Coord(r)
		if got := (c[0]*g.Dims[1]+c[1])*g.Dims[2] + c[2]; got != r {
			t.Fatalf("row-major rank of Coord(%d) = %d", r, got)
		}
	}
}

func TestPencilAndSlabGrids(t *testing.T) {
	if g := PencilGrid(0, 4, 6); g.Dims != [3]int{1, 4, 6} {
		t.Errorf("PencilGrid(0,4,6) = %v", g)
	}
	if g := PencilGrid(1, 4, 6); g.Dims != [3]int{4, 1, 6} {
		t.Errorf("PencilGrid(1,4,6) = %v", g)
	}
	if g := PencilGrid(2, 4, 6); g.Dims != [3]int{4, 6, 1} {
		t.Errorf("PencilGrid(2,4,6) = %v", g)
	}
	if g := SlabGrid(0, 8); g.Dims != [3]int{8, 1, 1} {
		t.Errorf("SlabGrid(0,8) = %v", g)
	}
	// Pencil boxes span the pencil axis.
	n := [3]int{16, 16, 16}
	for _, b := range PencilGrid(1, 2, 2).Decompose(n) {
		if b.Lo[1] != 0 || b.Hi[1] != 16 {
			t.Errorf("pencil box %v does not span axis 1", b)
		}
	}
}

func TestMinSurfaceGrid(t *testing.T) {
	// For a cubic grid, the most cubic factorization wins.
	g := MinSurfaceGrid(8, [3]int{64, 64, 64})
	if g.Dims != [3]int{2, 2, 2} {
		t.Errorf("MinSurfaceGrid(8, cube) = %v, want (2,2,2)", g)
	}
	// For a flat grid, splitting should follow the long axes.
	g = MinSurfaceGrid(4, [3]int{1, 64, 64})
	if g.Dims[0] != 1 {
		t.Errorf("MinSurfaceGrid(4, flat) = %v, want first dim 1", g)
	}
	// Size property for a few values.
	for _, p := range []int{1, 6, 12, 24, 96} {
		if got := MinSurfaceGrid(p, [3]int{512, 512, 512}).Size(); got != p {
			t.Errorf("MinSurfaceGrid(%d) size = %d", p, got)
		}
	}
	// Paper Table III: 6 GPUs → (1,2,3) is the min-surface grid for 512³.
	g = MinSurfaceGrid(6, [3]int{512, 512, 512})
	if g.Size() != 6 || g.Dims[0] > g.Dims[1] || g.Dims[1] > g.Dims[2] {
		t.Errorf("MinSurfaceGrid(6) = %v, want sorted near-cubic dims", g)
	}
}

func TestSquare2D(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 6: {2, 3}, 24: {4, 6}, 48: {6, 8}, 768: {24, 32}, 3072: {48, 64}}
	for n, want := range cases {
		p, q := Square2D(n)
		if p != want[0] || q != want[1] {
			t.Errorf("Square2D(%d) = (%d,%d), want %v", n, p, q, want)
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	own := NewBox(2, 0, 1, 7, 6, 9)
	sub := NewBox(3, 2, 4, 6, 5, 8)
	src := make([]complex128, own.Volume())
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	buf := make([]complex128, sub.Volume())
	Pack(src, own, sub, buf)
	dst := make([]complex128, own.Volume())
	Unpack(dst, own, sub, buf)
	// dst matches src exactly on sub and is zero elsewhere.
	for i0 := own.Lo[0]; i0 < own.Hi[0]; i0++ {
		for i1 := own.Lo[1]; i1 < own.Hi[1]; i1++ {
			for i2 := own.Lo[2]; i2 < own.Hi[2]; i2++ {
				idx := own.Index(i0, i1, i2)
				if sub.Contains(i0, i1, i2) {
					if dst[idx] != src[idx] {
						t.Fatalf("point (%d,%d,%d) not round-tripped", i0, i1, i2)
					}
				} else if dst[idx] != 0 {
					t.Fatalf("point (%d,%d,%d) outside sub modified", i0, i1, i2)
				}
			}
		}
	}
}

func TestPackOrderIsGlobalRowMajor(t *testing.T) {
	// Fill src with its global coordinates encoded, pack, and verify buffer
	// enumeration order.
	own := NewBox(0, 0, 0, 3, 3, 3)
	sub := NewBox(1, 0, 1, 3, 2, 3)
	src := make([]complex128, own.Volume())
	for i0 := 0; i0 < 3; i0++ {
		for i1 := 0; i1 < 3; i1++ {
			for i2 := 0; i2 < 3; i2++ {
				src[own.Index(i0, i1, i2)] = complex(float64(i0*100+i1*10+i2), 0)
			}
		}
	}
	buf := make([]complex128, sub.Volume())
	Pack(src, own, sub, buf)
	k := 0
	for i0 := sub.Lo[0]; i0 < sub.Hi[0]; i0++ {
		for i1 := sub.Lo[1]; i1 < sub.Hi[1]; i1++ {
			for i2 := sub.Lo[2]; i2 < sub.Hi[2]; i2++ {
				want := complex(float64(i0*100+i1*10+i2), 0)
				if buf[k] != want {
					t.Fatalf("buf[%d] = %v, want %v", k, buf[k], want)
				}
				k++
			}
		}
	}
}

// TestPackCoalescedRuns: Pack and Unpack fold rows that are adjacent in the
// local array into longer copies. Whatever the run structure — single rows, a
// plane's rows as one run, the whole block as one run — Pack must enumerate
// sub in global row-major order and Unpack must write exactly the points of
// sub.
func TestPackCoalescedRuns(t *testing.T) {
	own := NewBox(2, 3, 1, 7, 9, 6) // 5 × 6 × 5, off the origin
	for _, tc := range []struct {
		name string
		sub  Box3
		want runs // n0 × n1 copies of run elements
	}{
		{"rows", NewBox(3, 4, 2, 6, 8, 5), runs{n0: 3, n1: 4, run: 3}},
		{"rows/full-axis-1", NewBox(3, 3, 2, 6, 9, 5), runs{n0: 3, n1: 6, run: 3}},
		{"planes", NewBox(3, 4, 1, 6, 8, 6), runs{n0: 3, n1: 1, run: 20}},
		{"planes/one-row", NewBox(3, 4, 1, 6, 5, 6), runs{n0: 3, n1: 1, run: 5}},
		{"block", NewBox(3, 3, 1, 6, 9, 6), runs{n0: 1, n1: 1, run: 90}},
		{"block/one-plane", NewBox(4, 3, 1, 5, 9, 6), runs{n0: 1, n1: 1, run: 30}},
		{"whole", own, runs{n0: 1, n1: 1, run: 150}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r := runsAt(own, tc.sub, foldOf(own, tc.sub)); r.n0 != tc.want.n0 || r.n1 != tc.want.n1 || r.run != tc.want.run {
				t.Errorf("runsAt = %d × %d runs of %d, want %d × %d of %d", r.n0, r.n1, r.run, tc.want.n0, tc.want.n1, tc.want.run)
			}
			src := make([]float64, own.Volume())
			for i := range src {
				src[i] = float64(i + 1)
			}
			buf := make([]float64, tc.sub.Volume())
			Pack(src, own, tc.sub, buf)
			dst := make([]float64, own.Volume())
			Unpack(dst, own, tc.sub, buf)
			k := 0
			for i0 := own.Lo[0]; i0 < own.Hi[0]; i0++ {
				for i1 := own.Lo[1]; i1 < own.Hi[1]; i1++ {
					for i2 := own.Lo[2]; i2 < own.Hi[2]; i2++ {
						idx := own.Index(i0, i1, i2)
						if !tc.sub.Contains(i0, i1, i2) {
							if dst[idx] != 0 {
								t.Fatalf("Unpack wrote point (%d,%d,%d) outside sub", i0, i1, i2)
							}
							continue
						}
						if buf[k] != src[idx] {
							t.Fatalf("Pack: buf[%d] = %v, want point (%d,%d,%d) = %v", k, buf[k], i0, i1, i2, src[idx])
						}
						if dst[idx] != src[idx] {
							t.Fatalf("Unpack: point (%d,%d,%d) = %v, want %v", i0, i1, i2, dst[idx], src[idx])
						}
						k++
					}
				}
			}
		})
	}
}

// Property: for random own/sub pairs, Unpack(Pack(x)) restricted to sub
// equals x.
func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var own Box3
		for d := 0; d < 3; d++ {
			own.Lo[d] = rng.Intn(4)
			own.Hi[d] = own.Lo[d] + 1 + rng.Intn(6)
		}
		var sub Box3
		for d := 0; d < 3; d++ {
			sub.Lo[d] = own.Lo[d] + rng.Intn(own.Size(d))
			sub.Hi[d] = sub.Lo[d] + 1 + rng.Intn(own.Hi[d]-sub.Lo[d])
		}
		src := make([]complex128, own.Volume())
		for i := range src {
			src[i] = complex(rng.NormFloat64(), 0)
		}
		buf := make([]complex128, sub.Volume())
		Pack(src, own, sub, buf)
		dst := make([]complex128, own.Volume())
		Unpack(dst, own, sub, buf)
		for i0 := sub.Lo[0]; i0 < sub.Hi[0]; i0++ {
			for i1 := sub.Lo[1]; i1 < sub.Hi[1]; i1++ {
				for i2 := sub.Lo[2]; i2 < sub.Hi[2]; i2++ {
					if dst[own.Index(i0, i1, i2)] != src[own.Index(i0, i1, i2)] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPackArgValidation(t *testing.T) {
	own := NewBox(0, 0, 0, 2, 2, 2)
	sub := NewBox(0, 0, 0, 3, 1, 1) // not inside own
	defer func() {
		if recover() == nil {
			t.Error("expected panic for sub outside own")
		}
	}()
	Pack(make([]complex128, 8), own, sub, make([]complex128, 3))
}

// grow widens sub into the local box of a rank whose layout folds sub's rows
// to the given level (see foldOf).
func grow(sub Box3, fold int) Box3 {
	own := sub
	switch fold {
	case 0: // rows stay apart: axis 2 is wider than sub
		own.Lo[2], own.Hi[2] = sub.Lo[2]-2, sub.Hi[2]+1
		own.Lo[1]--
	case 1: // a plane's rows are one run: axis 2 matches, axis 1 is wider
		own.Hi[1] += 3
		own.Lo[0]--
	case 2: // one run: axes 1 and 2 match
		own.Lo[0], own.Hi[0] = sub.Lo[0]-1, sub.Hi[0]+2
	}
	return own
}

// checkCopyBox compares one CopyBox with Unpack(Pack(…)) element for element
// — outside sub the destination must stay untouched — and the number of runs
// copyRuns reports with the number that are contiguous in both layouts,
// counted by walking sub point by point.
func checkCopyBox[T comparable](t *testing.T, dstOwn, srcOwn, sub Box3, elem func(i int) T) {
	t.Helper()
	src := make([]T, srcOwn.Volume())
	for i := range src {
		src[i] = elem(i + 1)
	}
	want := make([]T, dstOwn.Volume())
	for i := range want {
		want[i] = elem(-i - 1)
	}
	got := append([]T(nil), want...)
	buf := make([]T, sub.Volume())
	Pack(src, srcOwn, sub, buf)
	Unpack(want, dstOwn, sub, buf)
	CopyBox(got, dstOwn, src, srcOwn, sub)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CopyBox(dst %v, src %v, sub %v): element %d = %v, Unpack(Pack) has %v", dstOwn, srcOwn, sub, i, got[i], want[i])
		}
	}
	if sub.Empty() {
		return
	}
	common, prevS, prevD := 0, -2, -2
	for i0 := sub.Lo[0]; i0 < sub.Hi[0]; i0++ {
		for i1 := sub.Lo[1]; i1 < sub.Hi[1]; i1++ {
			for i2 := sub.Lo[2]; i2 < sub.Hi[2]; i2++ {
				s, d := srcOwn.Index(i0, i1, i2), dstOwn.Index(i0, i1, i2)
				if s != prevS+1 || d != prevD+1 {
					common++
				}
				prevS, prevD = s, d
			}
		}
	}
	fold := min(foldOf(dstOwn, sub), foldOf(srcOwn, sub))
	if copies := copyRuns(got, runsAt(dstOwn, sub, fold), src, runsAt(srcOwn, sub, fold)); copies != common {
		t.Errorf("CopyBox(dst %v, src %v, sub %v) made %d copies for %d common runs", dstOwn, srcOwn, sub, copies, common)
	}
}

// TestCopyBoxMatchesPackUnpack: CopyBox is Unpack(Pack(…)) without the buffer,
// with one copy per run contiguous in both layouts — for every pairing of the
// three folding regimes on the two sides, empty boxes, random triples and both
// element types.
func TestCopyBoxMatchesPackUnpack(t *testing.T) {
	cplx := func(i int) complex128 { return complex(float64(i), -float64(i)) }
	flt := func(i int) float64 { return float64(i) }
	both := func(dstOwn, srcOwn, sub Box3) {
		checkCopyBox(t, dstOwn, srcOwn, sub, cplx)
		checkCopyBox(t, dstOwn, srcOwn, sub, flt)
	}
	sub := NewBox(4, 5, 6, 7, 9, 11)
	for fs := 0; fs <= 2; fs++ {
		for fd := 0; fd <= 2; fd++ {
			srcOwn, dstOwn := grow(sub, fs), grow(sub, fd)
			if foldOf(srcOwn, sub) != fs || foldOf(dstOwn, sub) != fd {
				t.Fatalf("grow: fold levels %d, %d, want %d, %d", foldOf(srcOwn, sub), foldOf(dstOwn, sub), fs, fd)
			}
			both(dstOwn, srcOwn, sub)
		}
	}
	for _, r := range packRegimes {
		both(r.own, r.own, r.sub)
		both(r.sub, r.own, r.sub)
		both(r.own, r.sub, r.sub)
	}
	// Empty sub-boxes: nothing moves, whatever the arrays.
	both(NewBox(0, 0, 0, 2, 2, 2), NewBox(1, 1, 1, 4, 4, 4), NewBox(1, 1, 1, 1, 2, 2))
	both(Box3{}, Box3{}, Box3{})

	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		var sub, srcOwn, dstOwn Box3
		for d := 0; d < 3; d++ {
			sub.Lo[d] = 3 + rng.Intn(4)
			sub.Hi[d] = sub.Lo[d] + 1 + rng.Intn(20)
			// A zero margin on both sides of an axis is what lets rows fold;
			// make it common.
			margin := func() int { return rng.Intn(3) * rng.Intn(2) }
			srcOwn.Lo[d], srcOwn.Hi[d] = sub.Lo[d]-margin(), sub.Hi[d]+margin()
			dstOwn.Lo[d], dstOwn.Hi[d] = sub.Lo[d]-margin(), sub.Hi[d]+margin()
		}
		both(dstOwn, srcOwn, sub)
	}
}

// TestCopyBoxArgValidation: CopyBox rejects what Pack and Unpack reject.
func TestCopyBoxArgValidation(t *testing.T) {
	own, sub := NewBox(0, 0, 0, 4, 4, 4), NewBox(1, 1, 1, 3, 3, 3)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	arr := make([]float64, own.Volume())
	mustPanic("sub outside dst", func() { CopyBox(make([]float64, 8), sub, arr, own, own) })
	mustPanic("sub outside src", func() { CopyBox(arr, own, make([]float64, 8), sub, own) })
	mustPanic("short dst", func() { CopyBox(arr[:10], own, arr, own, sub) })
	mustPanic("short src", func() { CopyBox(arr, own, arr[:10], own, sub) })
	mustPanic("overlap", func() { CopyBox(arr[1:], NewBox(0, 0, 0, 3, 3, 7), arr[:63], NewBox(0, 0, 0, 3, 3, 7), sub) })
}
