package fft

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestMain runs the package's tests once per dispatch setting the machine
// has — the AVX-512 routines, the AVX2 routines, the Go reference passes —
// so every implementation below the widest stays covered, and prints each
// setting's name before its run. Benchmark runs are not repeated.
func TestMain(m *testing.M) {
	flag.Parse()
	has2, has512 := useAVX2, useAVX512
	code, again := 0, ""
	for _, set := range []struct {
		name         string
		avx2, avx512 bool
	}{{"AVX-512 routines", true, true}, {"AVX2 routines", true, false}, {"Go reference passes", false, false}} {
		if set.avx2 && !has2 || set.avx512 && !has512 {
			continue
		}
		setDispatch(set.avx2, set.avx512)
		fmt.Printf("fft: %son the %s\n", again, set.name)
		code = m.Run()
		again = "again "
		if code != 0 || flag.Lookup("test.bench").Value.String() != "" {
			break
		}
	}
	os.Exit(code)
}

// setDispatch sets what the vector wrappers and the row engine dispatch to
// and returns what restores the previous setting.
func setDispatch(avx2, avx512 bool) (restore func()) {
	was2, was512 := useAVX2, useAVX512
	useAVX2, useAVX512 = avx2, avx512
	return func() { useAVX2, useAVX512 = was2, was512 }
}

// rowWidths are the widths of the row routines, narrowest first. Race builds
// run none of them.
func rowWidths() []rowWidth {
	return []rowWidth{
		{"avx2", !raceEnabled && cpuHasAVX2(), func() func() { return setDispatch(true, false) }},
		{"avx512", !raceEnabled && cpuHasAVX512(), func() func() { return setDispatch(true, true) }},
	}
}

// forEachRowWidth runs f as a subtest named for the width of the row
// routines the current pass dispatches to, so TestMain's AVX-512 and AVX2
// passes each test their own width and the Go pass neither; a width the
// machine lacks is a subtest skipped with a log line.
func forEachRowWidth(t *testing.T, f func(t *testing.T)) {
	for _, wd := range []struct {
		name        string
		has, avx512 bool
	}{{"avx2", cpuHasAVX2(), false}, {"avx512", cpuHasAVX512(), true}} {
		switch {
		case raceEnabled || !wd.has:
			t.Run(wd.name, func(t *testing.T) {
				t.Skipf("CPU or OS without %s, or a race build (the detector cannot see assembly)", wd.name)
			})
		case useAVX2 && useAVX512 == wd.avx512:
			t.Run(wd.name, f)
		}
	}
}

// TestRowsAsmBitIdentical holds the three row routines at each width to the
// Go loops they stand in for, bit for bit: the first stage and every pass of
// every plan length, both directions, groups of two lanes, four (whole ZMMs),
// six (one ZMM and a two-lane step) and full, in place and to a second array,
// unscaled and scaled, with the caller's lanes adjacent (lane 1, packed and
// padded rows), a line apart (lane n and n+5, pitch 1: contiguous lines) or
// the same line (lane 0, contiguous and strided: two lanes, a line on its
// own, and six). The destination starts from a sentinel, so a store outside
// the lanes shows too.
func TestRowsAsmBitIdentical(t *testing.T) {
	forEachRowWidth(t, testRowsAsmBitIdentical)
}

func testRowsAsmBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		p := NewPlan(n)
		for _, w := range []int{2, 4, 6, p.tileLines} {
			type layout struct{ pitch, lane int }
			layouts := []layout{{w, 1}, {w + 5, 1}, {1, n}, {1, n + 5}}
			if w == 2 || w == 6 {
				layouts = append(layouts, layout{1, 0}, layout{3, 0})
			}
			for _, lay := range layouts {
				pitch, lane := lay.pitch, lay.lane
				size := (n-1)*pitch + (w-1)*lane + 1
				for _, dir := range []Direction{Forward, Inverse} {
					for _, kinds := range []int{0, 4, 6} { // none; zeros and denormals; ±Inf too
						planted := func(size int) []complex128 {
							x := randSignal(rng, size)
							if kinds > 0 {
								plant(rng, x, 2*kinds*w, kinds)
							}
							return x
						}
						check := func(stage string, size int, ref, vec func(dst []complex128)) {
							t.Helper()
							want := make([]complex128, size)
							for i := range want {
								want[i] = complex(float64(i), -1)
							}
							got := append([]complex128(nil), want...)
							ref(want)
							vec(got)
							if i := sameBits(want, got); i >= 0 {
								t.Fatalf("n=%d w=%d pitch=%d lane=%d %v %s specials=%d: out[%d] = %v, Go reference %v",
									n, w, pitch, lane, dir, stage, kinds, i, got[i], want[i])
							}
						}
						data := planted(size)
						if p.preRadix2 {
							check("pairs", n*w,
								func(tile []complex128) { pairsRows(tile, data, w, pitch, lane, p.rev) },
								func(tile []complex128) { pairsRowsVec(tile, data, w, pitch, lane, p) })
						} else {
							check("quads", n*w,
								func(tile []complex128) { quadsRows(tile, data, w, pitch, lane, p.rev, dir == Forward) },
								func(tile []complex128) { quadsRowsVec(tile, data, w, pitch, lane, p, dir == Forward) })
						}
						s := p.firstTabS
						for _, tw := range p.tw4[dir] {
							src := planted(n * w)
							if lane == 1 && pitch == w { // the tile's own layout: the in-place middle passes
								check(fmt.Sprintf("s=%d in place", s), n*w,
									func(tile []complex128) { copy(tile, src); radix4Rows(tile, w, 1, tile, w, s, tw, 1, false) },
									func(tile []complex128) { copy(tile, src); radix4RowsVec(tile, w, 1, tile, w, s, tw, 1, false) })
							}
							for _, scale := range []float64{1, 1 / float64(n)} {
								check(fmt.Sprintf("s=%d to %g", s, scale), size,
									func(dst []complex128) { radix4Rows(dst, pitch, lane, src, w, s, tw, scale, scale != 1) },
									func(dst []complex128) { radix4RowsVec(dst, pitch, lane, src, w, s, tw, scale, scale != 1) })
							}
							s *= 4
						}
					}
				}
			}
		}
	}
}

// TestRowsPreconditions: everything the row routines rely on and cannot check
// panics in the wrappers, before any assembly runs; lane 0, a line on its own,
// is accepted at each width and a negative lane is not. The bit-reversal
// table is checked once, when the plan is built (TestRevTableCheckedAtBuild).
func TestRowsPreconditions(t *testing.T) {
	p64, p128 := NewPlan(64), NewPlan(128)
	tw := p64.tw4[Forward][0] // s = 4
	x := func(n int) []complex128 { return make([]complex128, n) }
	for name, call := range map[string]func(){
		"pairs/odd w":            func() { pairsRowsVec(x(128*3), x(128*3), 3, 3, 1, p128) },
		"pairs/w below 2":        func() { pairsRowsVec(x(128), x(128), 0, 4, 1, p128) },
		"pairs/short tile":       func() { pairsRowsVec(x(128*4-1), x(128*4), 4, 4, 1, p128) },
		"pairs/short data":       func() { pairsRowsVec(x(128*4), x(127*6+3), 4, 6, 1, p128) },
		"pairs/pitch below w":    func() { pairsRowsVec(x(128*4), x(128*4), 4, 2, 1, p128) },
		"pairs/lane below n":     func() { pairsRowsVec(x(128*4), x(128*4), 4, 1, 127, p128) },
		"pairs/negative lane":    func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, -1, p128) },
		"pairs/short lanes":      func() { pairsRowsVec(x(128*4), x(3*130+127), 4, 1, 130, p128) },
		"pairs/plan without one": func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, 1, &Plan{n: 128}) },
		"quads/odd w":            func() { quadsRowsVec(x(64*5), x(64*5), 5, 5, 1, p64, true) },
		"quads/short data":       func() { quadsRowsVec(x(64*2), x(64*2-1), 2, 2, 1, p64, false) },
		"quads/lane below n":     func() { quadsRowsVec(x(64*2), x(64*2), 2, 1, 63, p64, true) },
		"quads/short lanes":      func() { quadsRowsVec(x(64*2), x(64+63), 2, 1, 64, p64, false) },
		"quads/negative lane":    func() { quadsRowsVec(x(64*2), x(64*2), 2, 1, -64, p64, false) },
		"pass/odd w":             func() { radix4RowsVec(x(64*3), 3, 1, x(64*3), 3, 4, tw, 1, false) },
		"pass/w below 2":         func() { radix4RowsVec(x(64), 1, 1, x(64), 1, 4, tw, 1, false) },
		"pass/s below 1":         func() { radix4RowsVec(x(64*2), 2, 1, x(64*2), 2, 0, tw, 1, false) },
		"pass/rows not 4s":       func() { radix4RowsVec(x(24*2), 2, 1, x(24*2), 2, 4, tw, 1, false) },
		"pass/ragged src":        func() { radix4RowsVec(x(64*4), 4, 1, x(64*4-2), 4, 4, tw, 1, false) },
		"pass/empty":             func() { radix4RowsVec(nil, 2, 1, nil, 2, 4, tw, 1, false) },
		"pass/short twiddles":    func() { radix4RowsVec(x(64*2), 2, 1, x(64*2), 2, 16, tw, 1, false) },
		"pass/dpitch below w":    func() { radix4RowsVec(x(64*4), 2, 1, x(64*4), 4, 4, tw, 1, false) },
		"pass/short dst":         func() { radix4RowsVec(x(63*6+3), 6, 1, x(64*4), 4, 4, tw, 1, true) },
		"pass/dlane below n":     func() { radix4RowsVec(x(64*4), 1, 63, x(64*4), 4, 4, tw, 1, false) },
		"pass/negative dlane":    func() { radix4RowsVec(x(64*4), 4, -1, x(64*4), 4, 4, tw, 1, false) },
		"pass/short lanes":       func() { radix4RowsVec(x(3*70+63), 1, 70, x(64*4), 4, 4, tw, 1, true) },
		"pass/short at dlane 0":  func() { radix4RowsVec(x(63*4), 4, 0, x(64*2), 2, 4, tw, 1, false) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "fft: invalid radix-") {
					t.Errorf("%s: recovered %q, want the wrapper's panic", name, msg)
				}
			}()
			call()
		}()
	}
	forEachRowWidth(t, func(t *testing.T) {
		for name, call := range map[string]func(){
			"pairs/lane 0": func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, 0, p128) },
			"quads/lane 0": func() { quadsRowsVec(x(64*2), x(64), 2, 1, 0, p64, true) },
			"pass/dlane 0": func() { radix4RowsVec(x(64*4), 4, 0, x(64*4), 4, 4, tw, 1, false) },
		} {
			func() {
				defer func() {
					if msg := recover(); msg != nil {
						t.Errorf("%s: recovered %v, want the call accepted", name, msg)
					}
				}()
				call()
			}()
		}
	})
}

// TestSplitMergeVecBitIdentical holds splitRows and mergeRows, dispatched to
// splitRowsAVX2 and mergeRowsAVX2, to their Go loops, bit for bit (NaNs by
// NaN-ness): lengths 16 to 256 and three whose half length is odd (the split
// routine's last row alone), every even group width up to the half plan's
// tileLines and odd ones (the last lane on the Go loop), spectrum lanes 1
// (rows ss = w apart), n/2+1 and 3n/2+5 elements apart (rows contiguous, two
// per store), values dense in signed zeros, subnormals, infinities, NaNs and
// ±MaxFloat64. Arrays start from a sentinel, so a store
// outside the lanes shows. The spectrum pair (MaxFloat64+MaxFloat64i,
// MaxFloat64+8.6e297i), whose sums overflow, merges to NaN+NaNi on both
// paths: plain IEEE arithmetic on the overflowed intermediates.
func TestSplitMergeVecBitIdentical(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	if raceEnabled {
		t.Skip("single-goroutine comparison of code the detector cannot see; run without -race")
	}
	defer func(v bool) { useAVX2 = v }(useAVX2)
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(49))
	fill := func(x []complex128, dense bool) {
		pick := func() float64 {
			if dense && rng.Intn(2) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		}
		for i := range x {
			x[i] = complex(pick(), pick())
		}
	}
	sentinel := func(size int) []complex128 {
		x := make([]complex128, size)
		for i := range x {
			x[i] = complex(float64(i), -1)
		}
		return x
	}
	run := func(vec bool, f func()) {
		useAVX2 = vec
		f()
	}
	for _, n := range []int{16, 64, 128, 256, 2, 6, 10} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		h := n / 2
		var widths []int
		for w := 2; w <= p.half.tileLines; w += 2 {
			widths = append(widths, w)
		}
		widths = append(widths, 3, 7, p.half.tileLines-1)
		for _, w := range widths {
			for _, lay := range []struct{ ss, sd int }{{w, 1}, {1, h + 1}, {1, 3*h + 5}} {
				size := h*lay.ss + (w-1)*lay.sd + 1
				for trial, dense := range []bool{false, true, true} {
					where := fmt.Sprintf("n=%d w=%d ss=%d sd=%d trial %d", n, w, lay.ss, lay.sd, trial)
					tile := make([]complex128, h*w)
					fill(tile, dense)
					want, got := sentinel(size), sentinel(size)
					run(false, func() { p.splitLanes(tile, w, 0, want, 0, lay.ss, lay.sd) })
					run(true, func() { p.splitRows(tile, w, got, 0, lay.ss, lay.sd) })
					if i := sameBits(want, got); i >= 0 {
						t.Fatalf("%s: split spec[%d] = %v, Go loop %v", where, i, got[i], want[i])
					}

					spec := make([]complex128, size)
					fill(spec, dense)
					if trial == 2 && h >= 2 {
						for l := 0; l < w; l++ {
							spec[lay.ss+l*lay.sd] = complex(math.MaxFloat64, math.MaxFloat64)
							spec[(h-1)*lay.ss+l*lay.sd] = complex(math.MaxFloat64, 8.6e297)
						}
					}
					zwant, zgot := sentinel(h*w), sentinel(h*w)
					run(false, func() { p.mergeLanes(spec, 0, lay.ss, lay.sd, zwant, w, 0) })
					run(true, func() { p.mergeRows(spec, 0, lay.ss, lay.sd, zgot, w) })
					if i := sameBits(zwant, zgot); i >= 0 {
						t.Fatalf("%s: merged tile[%d] = %v, Go loop %v", where, i, zgot[i], zwant[i])
					}
					if trial == 2 && h >= 2 {
						for l := 0; l < w; l++ {
							if z := zgot[w+l]; !math.IsNaN(real(z)) || !math.IsNaN(imag(z)) {
								t.Fatalf("%s: overflowing spectrum merged to %v in lane %d, want NaN+NaNi", where, z, l)
							}
						}
					}
				}
			}
		}
	}
}

// TestSplitMergeVecPreconditions: everything the split and merge routines
// rely on and cannot check panics in the wrappers, before any assembly runs.
func TestSplitMergeVecPreconditions(t *testing.T) {
	p, err := NewRealPlan(16)
	if err != nil {
		t.Fatal(err)
	}
	x := func(n int) []complex128 { return make([]complex128, n) }
	const h = 8
	for name, call := range map[string]func(){
		"split/w below 2":   func() { splitRowsVec(x(h), 1, h, x(9), 1, 0, p.tw) },
		"split/h 0":         func() { splitRowsVec(x(4), 2, 0, x(4), 1, 1, p.tw) },
		"split/short tile":  func() { splitRowsVec(x(h*4-1), 4, h, x(9*4), 4, 1, p.tw) },
		"split/short spec":  func() { splitRowsVec(x(h*4), 4, h, x(9*4-1), 4, 1, p.tw) },
		"split/short lanes": func() { splitRowsVec(x(h*4), 4, h, x(9+2*9), 1, 9, p.tw) },
		"split/negative sd": func() { splitRowsVec(x(h*4), 4, h, x(9*4), 4, -1, p.tw) },
		"split/short tw":    func() { splitRowsVec(x(h*2), 2, h, x(9*2), 2, 1, p.tw[:h]) },
		"merge/w below 2":   func() { mergeRowsVec(x(9), 1, 0, x(h), 1, h, p.tw) },
		"merge/short ztile": func() { mergeRowsVec(x(9*2), 2, 1, x(h*2-1), 2, h, p.tw) },
		"merge/short spec":  func() { mergeRowsVec(x(9+9), 1, 10, x(h*2), 2, h, p.tw) },
		"merge/negative ss": func() { mergeRowsVec(x(9*2), -1, 9, x(h*2), 2, h, p.tw) },
		"merge/rows past h": func() { mergeRowsVec(x(9*2), 2, 1, x(h*2), 2, h+1, p.tw) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "fft: invalid real split or merge") {
					t.Errorf("%s: recovered %q, want the wrapper's panic", name, msg)
				}
			}()
			call()
		}()
	}
}
