package fft

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestMain runs the package's tests once per dispatch setting, so the Go
// reference passes stay covered on a machine that dispatches to radix4AVX2.
// Benchmark runs are not repeated.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && useAVX2 && flag.Lookup("test.bench").Value.String() == "" {
		useAVX2 = false
		fmt.Println("fft: again on the Go reference passes")
		code = m.Run()
	}
	os.Exit(code)
}

// TestRadix4AsmBitIdentical holds radix4AVX2 to the Go loops it replaces, bit
// for bit: every pass of every plan length, both directions, in place and to a
// second array, unscaled and scaled. Defined at the default GOAMD64=v1, the
// level the golden fingerprints were generated at.
func TestRadix4AsmBitIdentical(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		p := NewPlan(n)
		for _, dir := range []Direction{Forward, Inverse} {
			s := p.firstTabS
			for _, tw := range p.tw4[dir] {
				for _, nSpecials := range []int{0, 4, 12} { // 4: zeros and denormals only; 12: ±Inf too
					src := plantedSignal(rng, n, nSpecials)
					check := func(mode string, ref, vec func(dst, src []complex128)) {
						t.Helper()
						want, got := make([]complex128, n), make([]complex128, n)
						ws, gs := append([]complex128(nil), src...), append([]complex128(nil), src...)
						ref(want, ws)
						vec(got, gs)
						if i := sameBits(want, got); i >= 0 {
							t.Fatalf("n=%d %v s=%d %s specials=%d: out[%d] = %v, Go reference %v", n, dir, s, mode, nSpecials, i, got[i], want[i])
						}
					}
					check("in place",
						func(dst, src []complex128) { radix4Pass(src, s, tw); copy(dst, src) },
						func(dst, src []complex128) { radix4Vec(src, src, s, tw, 1, false); copy(dst, src) })
					for _, scale := range []float64{1, 1 / float64(n)} {
						check(fmt.Sprintf("to %g", scale),
							func(dst, src []complex128) { radix4PassTo(dst, src, s, tw, scale) },
							func(dst, src []complex128) { radix4Vec(dst, src, s, tw, scale, scale != 1) })
					}
				}
				s *= 4
			}
		}
	}
}

// TestRadix4VecPreconditions: everything the assembly relies on and cannot
// check panics in the wrapper.
func TestRadix4VecPreconditions(t *testing.T) {
	tw := make([]twiddle3, 8)
	x := func(n int) []complex128 { return make([]complex128, n) }
	for name, call := range map[string]func(){
		"odd s":             func() { radix4Vec(x(12), x(12), 3, tw, 1, false) },
		"s below 2":         func() { radix4Vec(x(4), x(4), 1, tw, 1, false) },
		"len not 4s blocks": func() { radix4Vec(x(40), x(40), 8, tw, 1, false) },
		"empty":             func() { radix4Vec(nil, nil, 2, tw, 1, false) },
		"short twiddles":    func() { radix4Vec(x(64), x(64), 16, tw, 1, false) },
		"short dst":         func() { radix4Vec(x(31), x(32), 8, tw, 1, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// TestRowsAsmBitIdentical holds the three row routines to the Go loops they
// stand in for, bit for bit: the first stage and every pass of every plan
// length, both directions, narrow and full groups, in place and to a second
// array, unscaled and scaled, with the caller's lanes adjacent (lane 1, packed
// and padded rows) or a line apart (lane n and n+5, pitch 1: contiguous lines).
// The destination starts from a sentinel, so a store outside the lanes shows
// too.
func TestRowsAsmBitIdentical(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	if raceEnabled {
		t.Skip("single-goroutine comparison of code the detector cannot see; run without -race")
	}
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096} {
		p := NewPlan(n)
		for _, w := range []int{2, 6, p.tileLines} {
			for _, lay := range []struct{ pitch, lane int }{{w, 1}, {w + 5, 1}, {1, n}, {1, n + 5}} {
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
								func(tile []complex128) { pairsRowsVec(tile, data, w, pitch, lane, p.rev) })
						} else {
							check("quads", n*w,
								func(tile []complex128) { quadsRows(tile, data, w, pitch, lane, p.rev, dir == Forward) },
								func(tile []complex128) { quadsRowsVec(tile, data, w, pitch, lane, p.rev, dir == Forward) })
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
// panics in the wrappers, before any assembly runs.
func TestRowsPreconditions(t *testing.T) {
	p64, p128 := NewPlan(64), NewPlan(128)
	tw := p64.tw4[Forward][0] // s = 4
	x := func(n int) []complex128 { return make([]complex128, n) }
	badRev := append([]int32(nil), p128.rev...)
	badRev[5] = 128
	for name, call := range map[string]func(){
		"pairs/odd w":            func() { pairsRowsVec(x(128*3), x(128*3), 3, 3, 1, p128.rev) },
		"pairs/w below 2":        func() { pairsRowsVec(x(128), x(128), 0, 4, 1, p128.rev) },
		"pairs/short tile":       func() { pairsRowsVec(x(128*4-1), x(128*4), 4, 4, 1, p128.rev) },
		"pairs/short data":       func() { pairsRowsVec(x(128*4), x(127*6+3), 4, 6, 1, p128.rev) },
		"pairs/pitch below w":    func() { pairsRowsVec(x(128*4), x(128*4), 4, 2, 1, p128.rev) },
		"pairs/lane below n":     func() { pairsRowsVec(x(128*4), x(128*4), 4, 1, 127, p128.rev) },
		"pairs/lane 0":           func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, 0, p128.rev) },
		"pairs/short lanes":      func() { pairsRowsVec(x(128*4), x(3*130+127), 4, 1, 130, p128.rev) },
		"pairs/odd table":        func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, 1, p128.rev[:3]) },
		"pairs/empty table":      func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, 1, nil) },
		"pairs/index past table": func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, 1, badRev) },
		"quads/odd w":            func() { quadsRowsVec(x(64*5), x(64*5), 5, 5, 1, p64.rev, true) },
		"quads/short data":       func() { quadsRowsVec(x(64*2), x(64*2-1), 2, 2, 1, p64.rev, false) },
		"quads/lane below n":     func() { quadsRowsVec(x(64*2), x(64*2), 2, 1, 63, p64.rev, true) },
		"quads/short lanes":      func() { quadsRowsVec(x(64*2), x(64+63), 2, 1, 64, p64.rev, false) },
		"quads/table not 4s":     func() { quadsRowsVec(x(64*2), x(64*2), 2, 2, 1, p64.rev[:6], true) },
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
		"pass/dlane 0":           func() { radix4RowsVec(x(64*4), 4, 0, x(64*4), 4, 4, tw, 1, false) },
		"pass/short lanes":       func() { radix4RowsVec(x(3*70+63), 1, 70, x(64*4), 4, 4, tw, 1, true) },
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
}
