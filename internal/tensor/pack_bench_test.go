package tensor

import (
	"testing"
	"unsafe"
)

// packRegimes are the three run structures Pack and Unpack meet on the 128³,
// 64-rank pencil pipeline, each moving the same 64 KB: a brick's 256-byte rows
// one by one, a y-pencil's planes as 4 KB runs (the sub-box spans axis 2), and
// an x-pencil's slice as a single run (it spans axes 1 and 2).
var packRegimes = []struct {
	name     string
	own, sub Box3
}{
	{"row", NewBox(0, 0, 0, 32, 32, 32), NewBox(0, 8, 16, 32, 16, 32)},
	{"plane", NewBox(0, 0, 0, 16, 128, 16), NewBox(0, 16, 0, 16, 32, 16)},
	{"block", NewBox(0, 0, 0, 128, 16, 16), NewBox(16, 0, 0, 32, 16, 16)},
}

func benchPack(b *testing.B, unpack bool) {
	for _, r := range packRegimes {
		local := seq(r.own.Volume(), 1)
		buf := seq(r.sub.Volume(), 2)
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(int64(16 * len(buf)))
			for i := 0; i < b.N; i++ {
				if unpack {
					Unpack(local, r.own, r.sub, buf)
				} else {
					Pack(local, r.own, r.sub, buf)
				}
			}
			if unpack {
				checkBox(b, local, r.own, buf, r.sub, r.sub)
			} else {
				checkBox(b, buf, r.sub, local, r.own, r.sub)
			}
		})
	}
}

// seq returns n distinct complex values, tagged with k in the imaginary part,
// so a copy from the wrong element or the wrong array shows in checkBox.
func seq(n, k int) []complex128 {
	a := make([]complex128, n)
	for i := range a {
		a[i] = complex(float64(i+1), float64(k))
	}
	return a
}

// checkBox fails b unless every point of sub holds the same value in dst,
// laid out as dstOwn, as in src, laid out as srcOwn: walked point by point,
// so it shares no code with the copy it checks. Benchmarks call it once,
// after their loop and outside the timer, so a wrong copy fails instead of
// being timed.
func checkBox[T comparable](b *testing.B, dst []T, dstOwn Box3, src []T, srcOwn, sub Box3) {
	b.Helper()
	b.StopTimer()
	for i0 := sub.Lo[0]; i0 < sub.Hi[0]; i0++ {
		for i1 := sub.Lo[1]; i1 < sub.Hi[1]; i1++ {
			for i2 := sub.Lo[2]; i2 < sub.Hi[2]; i2++ {
				if d, s := dst[dstOwn.Index(i0, i1, i2)], src[srcOwn.Index(i0, i1, i2)]; d != s {
					b.Fatalf("point (%d,%d,%d) of %v is %v, want %v", i0, i1, i2, sub, d, s)
				}
			}
		}
	}
}

func BenchmarkPack(b *testing.B)   { benchPack(b, false) }
func BenchmarkUnpack(b *testing.B) { benchPack(b, true) }

// shortRuns are copies altpaths64_r24 (64³ over 24 ranks) makes on every
// transform, with their real boxes: its pipelined complex plan's pencil
// reshapes move runs of 5 and 11 elements (80 and 176 B), its real plan
// unpacks received float64 blocks in runs of 16 (128 B); the last is the run
// of 5 again in float64, which ends in the kernel's 8-byte tail.
var shortRuns = []struct {
	name                string
	dstOwn, srcOwn, sub Box3
	real                bool
}{
	{"c128x5", NewBox(0, 0, 18, 16, 64, 23), NewBox(0, 33, 0, 16, 44, 33), NewBox(0, 33, 18, 16, 44, 23), false},
	{"c128x11", NewBox(48, 33, 0, 64, 44, 64), NewBox(48, 0, 0, 64, 64, 11), NewBox(48, 33, 0, 64, 44, 11), false},
	{"f64x16", NewBox(0, 11, 0, 16, 22, 64), NewBox(0, 11, 16, 16, 22, 32), NewBox(0, 11, 16, 16, 22, 32), true},
	{"f64x5", NewBox(0, 0, 18, 16, 64, 23), NewBox(0, 33, 0, 16, 44, 33), NewBox(0, 33, 18, 16, 44, 23), true},
}

// coldShapes are the reshape copies of dense128_r64 (128³ over 64 ranks), one
// received block each, between the 512 KB arrays of two ranks: 16 × 16 runs of
// 16 elements whose destination rows lie 128 apart (a y-pencil into a
// z-pencil), 32 × 16 runs of 16 out of a brick into an x-pencil, 16 × 16 runs
// of 32 out of a z-pencil into a brick, an x-pencil's slice into a y-pencil as
// 16 planes of one 256-element run, and a 128 KB block that is one run.
var coldShapes = []struct {
	name                string
	dstOwn, srcOwn, sub Box3
}{
	{"16x16x16_rows128", NewBox(0, 0, 0, 16, 16, 128), NewBox(0, 0, 0, 16, 128, 16), NewBox(0, 0, 0, 16, 16, 16)},
	{"32x16x16", NewBox(0, 0, 0, 128, 16, 16), NewBox(0, 0, 0, 32, 32, 32), NewBox(0, 0, 0, 32, 16, 16)},
	{"16x16x32", NewBox(0, 0, 0, 32, 32, 32), NewBox(0, 0, 0, 16, 16, 128), NewBox(0, 0, 0, 16, 16, 32)},
	{"plane256", NewBox(0, 0, 0, 16, 128, 16), NewBox(0, 0, 0, 128, 16, 16), NewBox(0, 0, 0, 16, 16, 16)},
	{"block8192", NewBox(0, 0, 0, 128, 16, 16), NewBox(0, 0, 0, 128, 16, 16), NewBox(0, 0, 0, 32, 16, 16)},
}

// coldPairs is how many source/destination array pairs a cold benchmark
// rotates over: 64 MB of arrays, so no block is still in L2 when it is copied
// again, as in a reshape, where other passes ran over other arrays since.
const coldPairs = 64

// BenchmarkCopyBox moves each regime's sub-box from its local array into the
// array of the rank that receives it on the same pipeline (an x-pencil for the
// brick's rows and the y-pencil's planes, a y-pencil for the x-pencil's slice)
// once as a reshape that lends does, with one CopyBox, and once as one that
// packs does, through a contiguous buffer; then the shortRuns, with one
// CopyBox each; then the coldShapes, each CopyBox into and out of the next of
// coldPairs array pairs, as a reshape meets them. All report the payload's
// GB/s, and each checks its destination box once after its loop.
func BenchmarkCopyBox(b *testing.B) {
	receivers := []Box3{NewBox(0, 0, 16, 128, 16, 32), NewBox(0, 16, 0, 128, 32, 16), NewBox(16, 0, 0, 32, 128, 16)}
	for i, r := range packRegimes {
		src := seq(r.own.Volume(), 1)
		dst, dst2 := make([]complex128, receivers[i].Volume()), make([]complex128, receivers[i].Volume())
		buf := make([]complex128, r.sub.Volume())
		b.Run(r.name+"/copybox", func(b *testing.B) {
			b.SetBytes(int64(16 * len(buf)))
			for n := 0; n < b.N; n++ {
				CopyBox(dst, receivers[i], src, r.own, r.sub)
			}
			checkBox(b, dst, receivers[i], src, r.own, r.sub)
		})
		b.Run(r.name+"/pack+unpack", func(b *testing.B) {
			b.SetBytes(int64(16 * len(buf)))
			for n := 0; n < b.N; n++ {
				Pack(src, r.own, r.sub, buf)
				Unpack(dst2, receivers[i], r.sub, buf)
			}
			checkBox(b, dst2, receivers[i], src, r.own, r.sub)
		})
	}
	for _, r := range shortRuns {
		if r.real {
			benchCopyBox(b, r.name, r.dstOwn, r.srcOwn, r.sub, func(i int) float64 { return float64(i + 1) })
		} else {
			benchCopyBox(b, r.name, r.dstOwn, r.srcOwn, r.sub, func(i int) complex128 { return complex(float64(i+1), 1) })
		}
	}
	// Written once, so every page is mapped before the timing starts; each
	// source distinct from the others.
	ones := func(n int) []complex128 {
		a := make([]complex128, n)
		for i := range a {
			a[i] = 1
		}
		return a
	}
	for _, r := range coldShapes {
		var src, dst [coldPairs][]complex128
		for i := range src {
			src[i], dst[i] = seq(r.srcOwn.Volume(), i), ones(r.dstOwn.Volume())
		}
		b.Run("cold/"+r.name, func(b *testing.B) {
			b.SetBytes(int64(16 * r.sub.Volume()))
			for n := 0; n < b.N; n++ {
				CopyBox(dst[n%coldPairs], r.dstOwn, src[n%coldPairs], r.srcOwn, r.sub)
			}
			last := (b.N - 1) % coldPairs
			checkBox(b, dst[last], r.dstOwn, src[last], r.srcOwn, r.sub)
		})
	}
}

func benchCopyBox[T complex128 | float64](b *testing.B, name string, dstOwn, srcOwn, sub Box3, elem func(i int) T) {
	src, dst := make([]T, srcOwn.Volume()), make([]T, dstOwn.Volume())
	for i := range src {
		src[i] = elem(i)
	}
	b.Run(name+"/copybox", func(b *testing.B) {
		b.SetBytes(int64(sub.Volume()) * int64(unsafe.Sizeof(src[0])))
		for n := 0; n < b.N; n++ {
			CopyBox(dst, dstOwn, src, srcOwn, sub)
		}
		checkBox(b, dst, dstOwn, src, srcOwn, sub)
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
