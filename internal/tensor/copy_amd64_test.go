//go:build !race

package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// words views an array of complex128 or float64 as its 64-bit words, so
// arrays compare bit for bit (NaN payloads included) and fill with any bits.
func words[T complex128 | float64](a []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(a))), len(a)*int(unsafe.Sizeof(a[0]))/8)
}

// bothPaths runs do on two copies of dst, once through copyBlockSSE2 and
// once through the Go copy loop, and fails unless they agree bit for bit.
func bothPaths[T complex128 | float64](t *testing.T, what string, dst []T, do func(dst []T)) {
	t.Helper()
	want := slices.Clone(dst)
	useSSE2 = false
	do(want)
	useSSE2 = true
	do(dst)
	if !slices.Equal(words(dst), words(want)) {
		for i := range dst {
			if words(dst[i : i+1])[0] != words(want[i : i+1])[0] {
				t.Fatalf("%s: element %d = %v, Go copy loop has %v", what, i, dst[i], want[i])
			}
		}
	}
}

// TestCopyKernelBitIdentical holds copyBlockSSE2 to the Go copy loop it stands
// in for. Blocks of one to three planes of 1–40 runs start the prefetch
// cursor inside a plane, at a plane boundary and at the block's end (the
// distance is clamped to the block), at both clamps of the prefetch distance
// (32 runs ahead for runs of at most 128 bytes, 2 from 2048 bytes up). Runs of 1–40 elements of both types take the
// 64-byte loop and the 16- and 8-byte tails, alone and together; runs just
// under, at and over prefetchLead bytes take the distance's lower clamp and
// no prefetch. There are gaps between the runs on either side or none, and
// both arrays end exactly at the last run's last element: past it the
// destination's backing array holds a guard whose bits must stay. Then the
// three packRegimes through CopyBox, Pack and Unpack. Elements outside the
// runs must keep their bits.
func TestCopyKernelBitIdentical(t *testing.T) {
	t.Cleanup(func() { useSSE2 = true })
	rng := rand.New(rand.NewSource(40))
	fill := func(w []uint64) {
		for i := range w {
			w[i] = rng.Uint64()
		}
	}
	const guard = 9
	block := func(run, n0, n1, gd, gs int) {
		d := runs{base: 1, n0: n0, n1: n1, st1: run + gd, run: run}
		s := runs{base: 2, n0: n0, n1: n1, st1: run + gs, run: run}
		d.st0, s.st0 = n1*d.st1+gd, n1*s.st1+gs
		dn, sn := d.base+(n0-1)*d.st0+(n1-1)*d.st1+run, s.base+(n0-1)*s.st0+(n1-1)*s.st1+run
		c := [2][]complex128{make([]complex128, dn+guard), make([]complex128, sn)}
		f := [2][]float64{make([]float64, dn+guard), make([]float64, sn)}
		for _, a := range [][]uint64{words(c[0]), words(c[1]), words(f[0]), words(f[1])} {
			fill(a)
		}
		what := fmt.Sprintf("%d × %d runs of %d, gaps %d and %d", n0, n1, run, gd, gs)
		bothPaths(t, "complex128 "+what, c[0], func(dst []complex128) { copyRuns(dst[:dn:dn], d, c[1], s) })
		bothPaths(t, "float64 "+what, f[0], func(dst []float64) { copyRuns(dst[:dn:dn], d, f[1], s) })
	}
	for run := 1; run <= 40; run++ {
		for n0 := 1; n0 <= 3; n0++ {
			for n1 := 1; n1 <= 40; n1++ {
				for _, g := range [][2]int{{0, 0}, {3, 0}, {0, 5}, {3, 5}} {
					block(run, n0, n1, g[0], g[1])
				}
			}
		}
	}
	// 128 and 255 complex128 (2048 and 4080 bytes) prefetch 2 runs ahead, 256
	// (prefetchLead) and 300 none; as float64, 256 and 511 prefetch 2 ahead.
	for _, run := range []int{128, 255, 256, 300, 511, 512, 600} {
		for n0 := 1; n0 <= 3; n0++ {
			for n1 := 1; n1 <= 4; n1++ {
				block(run, n0, n1, 3, 5)
			}
		}
	}
	receivers := []Box3{NewBox(0, 0, 16, 128, 16, 32), NewBox(0, 16, 0, 128, 32, 16), NewBox(16, 0, 0, 32, 128, 16)}
	for i, r := range packRegimes {
		src, dst, buf := make([]complex128, r.own.Volume()), make([]complex128, receivers[i].Volume()), make([]complex128, r.sub.Volume())
		for _, a := range [][]uint64{words(src), words(dst), words(buf)} {
			fill(a)
		}
		bothPaths(t, r.name+" CopyBox", dst, func(dst []complex128) { CopyBox(dst, receivers[i], src, r.own, r.sub) })
		bothPaths(t, r.name+" Pack", buf, func(buf []complex128) { Pack(src, r.own, r.sub, buf) })
		bothPaths(t, r.name+" Unpack", src, func(src []complex128) { Unpack(src, r.own, r.sub, buf) })
	}
}
