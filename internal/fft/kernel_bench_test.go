package fft

import (
	"math"
	"math/rand"
	"testing"
)

// requireFinite fails a benchmark whose output holds a NaN or an infinity:
// it timed special-value arithmetic, not the kernel. Every benchmark of this
// package calls it after its loop. A forward transform scales a line's norm
// by √n, so one repeated in place on the same array overflows within a few
// hundred calls; the benchmarks that transform in place restore their input
// on every iteration.
func requireFinite[T float64 | complex128](b *testing.B, out []T) {
	b.Helper()
	for i, v := range out {
		if v-v != 0 { // NaN − NaN and ±Inf − ±Inf are NaN
			b.Fatalf("output element %d is %v after %d iterations", i, v, b.N)
		}
	}
}

// Single-line kernel throughput across the size ladder of the radix-4 engine
// (8..4096), covering every power of two the distributed pencil pipeline and
// the Bluestein sub-transforms hit. A line on its own runs on the row engine
// as two lanes that are the same line. The input is restored every iteration.
func BenchmarkKernel(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		b.Run(itoa(n), func(b *testing.B) {
			x0 := randSignal(rand.New(rand.NewSource(11)), n)
			x := make([]complex128, n)
			p := NewPlan(n)
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, x0)
				p.transformContig(x, Forward)
			}
			requireFinite(b, x)
		})
	}
}

// Inverse single-line kernel: measures the fused 1/N scaling path. The input
// is restored every iteration — repeated 1/N scaling would otherwise drive
// the data into denormal range and measure FP-assist stalls, not the kernel.
func BenchmarkKernelInverse(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(itoa(n), func(b *testing.B) {
			x0 := randSignal(rand.New(rand.NewSource(12)), n)
			x := make([]complex128, n)
			p := NewPlan(n)
			b.SetBytes(int64(16 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, x0)
				p.transformContig(x, Inverse)
			}
			requireFinite(b, x)
		})
	}
}

// Strided batches shaped like the column passes of Transform2D/3D and the
// pencil pipeline: transform along the slow axis of an n×n plane (stride n,
// dist 1), the two strided passes of a 16×128×16 and a 128×16×16 pencil
// (nested: 16 planes of 16 adjacent lines; plain: 256 adjacent lines), and the
// same two passes of one rank's 32-point pencils of the 32³ transform on 8
// ranks (serve_mixed_r8: 32×16×8 plain, 16×32×8 nested), and an 11-wide
// y-pencil pass of the 64³ transform on 4×6 ranks (altpaths64_r24: 16 planes
// of 11 lines, each plane leaving an odd line). Adjacent lines run across
// rows (rows.go); ns/line is reported beside ns/op. The input is restored
// every iteration.
func BenchmarkStridedBatch(b *testing.B) {
	type shape struct {
		name          string
		n, stride     int
		dist1, batch1 int
		batch2        int
	}
	plane := func(n, batch int) shape {
		return shape{itoa(n) + "x" + itoa(batch), n, batch, 0, 1, batch}
	}
	for _, s := range []shape{
		plane(64, 64), plane(128, 128), plane(256, 256), plane(1024, 32),
		{"pencil16x128x16", 128, 16, 128 * 16, 16, 16},
		{"pencil128x16x16", 128, 256, 0, 1, 256},
		{"pencil32x16x8", 32, 128, 0, 1, 128},
		{"pencil16x32x8", 32, 8, 32 * 8, 16, 8},
		{"pencil16x64x11", 64, 11, 64 * 11, 16, 11},
	} {
		b.Run(s.name, func(b *testing.B) {
			lines := s.batch1 * s.batch2
			x0 := randSignal(rand.New(rand.NewSource(13)), s.n*lines)
			x := make([]complex128, len(x0))
			p := NewPlan(s.n)
			b.SetBytes(int64(16 * s.n * lines))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, x0)
				p.TransformNested(x, s.stride, s.dist1, s.batch1, 1, s.batch2, Forward)
			}
			requireFinite(b, x)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/line")
		})
	}
}

// Contiguous batches: the row pass of an n×n plane, the z-pencil of a 128³
// transform on 64 ranks (16×16 lines of 128, dense128_r64), one rank's share
// of the 64³ transform on 8 ranks (512 lines of 64, serve_mixed_r8) and one
// rank's z-pencil of its 32³ transform (16×8 lines of 32).
// Groups of lines run across rows (rows.go) with lane = n; ns/line is
// reported beside ns/op. The input is restored every iteration.
func BenchmarkContigBatch(b *testing.B) {
	type shape struct {
		name     string
		n, batch int
	}
	for _, s := range []shape{{"128x128", 128, 128}, {"256x256", 256, 256}, {"pencil16x16x128", 128, 256}, {"rank64r8", 64, 512}, {"pencil16x8x32", 32, 128}} {
		b.Run(s.name, func(b *testing.B) {
			x0 := randSignal(rand.New(rand.NewSource(14)), s.n*s.batch)
			x := make([]complex128, len(x0))
			p := NewPlan(s.n)
			b.SetBytes(int64(16 * s.n * s.batch))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, x0)
				p.TransformBatch(x, 1, s.n, s.batch, Forward)
			}
			requireFinite(b, x)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.batch), "ns/line")
		})
	}
}

// All twiddled radix-4 passes of one full group of adjacent lines (tileLines
// lines of n points: 16, 4 and 2), in place on the L1-resident tile, ns/line
// beside ns/op: the Go reference loop (ref), then rows4 at each width of the
// vector routines the machine runs (avx2, avx512; none elsewhere and under
// -race). A group of two lanes runs the AVX2 routine at either width. Zeros
// stay zeros, so repeated passes do not drift into denormals or overflow.
func BenchmarkRadix4Rows(b *testing.B) {
	for _, n := range []int{128, 512, 4096} {
		p := NewPlan(n)
		w := p.tileLines
		tile := make([]complex128, n*w)
		run := func(name string, pass func(dst []complex128, dpitch, dlane int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool)) {
			b.Run(name+"/"+itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := p.firstTabS
					for _, tw := range p.tw4[Forward] {
						pass(tile, w, 1, tile, w, s, tw, 1, false)
						s *= 4
					}
				}
				requireFinite(b, tile)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/line")
			})
		}
		run("ref", radix4Rows)
		for _, wd := range rowWidths() {
			if !wd.has {
				b.Logf("%s: CPU or OS without it, or a race build", wd.name)
				continue
			}
			restore := wd.use()
			run(wd.name, rows4)
			restore()
		}
	}
}

// Real batches in the pencil layout core's real plans use (packed real lines,
// half-spectra n/2+1 apart): one altpaths64_r24 rank's z-pencil (176 lines of
// 64) and 256 lines of 128, forward and inverse, and the z-pencil again with a
// NaN planted in the first line of every row group (…/nan), which costs what a
// clean batch does. All run across rows (real.go); ns/line is reported beside
// ns/op.
func BenchmarkRealBatch(b *testing.B) {
	for _, s := range []struct {
		n, batch int
		nan      bool
	}{{64, 176, false}, {128, 256, false}, {64, 176, true}} {
		p, err := NewRealPlan(s.n)
		if err != nil {
			b.Fatal(err)
		}
		h := s.n/2 + 1
		x := randReal(rand.New(rand.NewSource(15)), s.n*s.batch)
		spec := make([]complex128, h*s.batch)
		if err := p.ForwardBatch(x, 1, s.n, spec, 1, h, s.batch); err != nil {
			b.Fatal(err)
		}
		name := itoa(s.n) + "x" + itoa(s.batch)
		if s.nan {
			name += "/nan"
			for l := 0; l < s.batch; l += p.half.tileLines {
				x[l*s.n+5] = math.NaN()
				spec[l*h+3] = complex(math.NaN(), 0)
			}
		}
		for _, dir := range []Direction{Forward, Inverse} {
			b.Run(dir.String()+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(8 * s.n * s.batch))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if dir == Forward {
						err = p.ForwardBatch(x, 1, s.n, spec, 1, h, s.batch)
					} else {
						err = p.InverseBatch(spec, 1, h, x, 1, s.n, s.batch)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				// The planted NaNs stay in their own lines.
				for l := 0; l < s.batch; l++ {
					if !s.nan || l%p.half.tileLines != 0 {
						requireFinite(b, x[l*s.n:(l+1)*s.n])
						requireFinite(b, spec[l*h:(l+1)*h])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.batch), "ns/line")
			})
		}
	}
}

// The real transform's even/odd split and merge alone, on one full row group
// of altpaths64_r24's z-pencil (64-point real lines: 64 lanes, spectrum lines
// 33 apart), ns per spectrum element written beside ns/op: the Go loops
// against whatever the machine dispatches to (splitRowsAVX2 and
// mergeRowsAVX2 on amd64 with AVX2).
func BenchmarkSplitMerge(b *testing.B) {
	const n = 64
	p, err := NewRealPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	h, w := n/2, p.half.tileLines
	rng := rand.New(rand.NewSource(16))
	tile, spec := randSignal(rng, h*w), randSignal(rng, (h+1)*w)
	for _, v := range []struct {
		name         string
		split, merge func()
	}{
		{"ref", func() { p.splitLanes(tile, w, 0, spec, 0, 1, h+1) }, func() { p.mergeLanes(spec, 0, 1, h+1, tile, w, 0) }},
		{"dispatched", func() { p.splitRows(tile, w, spec, 0, 1, h+1) }, func() { p.mergeRows(spec, 0, 1, h+1, tile, w) }},
	} {
		for _, op := range []struct {
			name  string
			run   func()
			elems int
		}{{"split", v.split, (h + 1) * w}, {"merge", v.merge, h * w}} {
			b.Run(op.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
				requireFinite(b, tile)
				requireFinite(b, spec)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*op.elems), "ns/elem")
			})
		}
	}
}
