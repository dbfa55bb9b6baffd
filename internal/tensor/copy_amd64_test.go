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

// bothPaths runs do on two copies of dst, once through copyRunsSSE2 and
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

// TestCopyKernelBitIdentical holds copyRunsSSE2 to the Go copy loop it stands
// in for: every run of 1–40 elements of both types (the 64-byte loop and the
// 16- and 8-byte tails, alone and together), one or two planes of one to
// three rows, with and without gaps between the runs on either side, and the
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
	for run := 1; run <= 40; run++ {
		for n0 := 1; n0 <= 2; n0++ {
			for n1 := 1; n1 <= 3; n1++ {
				for _, gd := range []int{0, 3} {
					for _, gs := range []int{0, 5} {
						d := runs{base: 1, n0: n0, n1: n1, st1: run + gd, run: run}
						s := runs{base: 2, n0: n0, n1: n1, st1: run + gs, run: run}
						d.st0, s.st0 = n1*d.st1+gd, n1*s.st1+gs
						dn, sn := d.base+n0*d.st0+1, s.base+n0*s.st0+1
						c := [2][]complex128{make([]complex128, dn), make([]complex128, sn)}
						f := [2][]float64{make([]float64, dn), make([]float64, sn)}
						for _, a := range [][]uint64{words(c[0]), words(c[1]), words(f[0]), words(f[1])} {
							fill(a)
						}
						what := fmt.Sprintf("%d × %d runs of %d, gaps %d and %d", n0, n1, run, gd, gs)
						bothPaths(t, "complex128 "+what, c[0], func(dst []complex128) { copyRuns(dst, d, c[1], s) })
						bothPaths(t, "float64 "+what, f[0], func(dst []float64) { copyRuns(dst, d, f[1], s) })
					}
				}
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
