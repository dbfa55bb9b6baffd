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
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
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
// length, both directions, narrow and full groups, packed and padded rows, in
// place and to a second array, unscaled and scaled. The destination starts
// from a sentinel, so a store outside the rows shows too.
func TestRowsAsmBitIdentical(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	if raceEnabled {
		t.Skip("single-goroutine comparison of code the detector cannot see; run without -race")
	}
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		p := NewPlan(n)
		for _, w := range []int{2, 6, p.tileLines} {
			for _, pitch := range []int{w, w + 5} {
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
								t.Fatalf("n=%d w=%d pitch=%d %v %s specials=%d: out[%d] = %v, Go reference %v",
									n, w, pitch, dir, stage, kinds, i, got[i], want[i])
							}
						}
						data := planted((n-1)*pitch + w)
						if p.preRadix2 {
							check("pairs", n*w,
								func(tile []complex128) { pairsRows(tile, data, w, pitch, p.rev) },
								func(tile []complex128) { pairsRowsVec(tile, data, w, pitch, p.rev) })
						} else {
							check("quads", n*w,
								func(tile []complex128) { quadsRows(tile, data, w, pitch, p.rev, dir == Forward) },
								func(tile []complex128) { quadsRowsVec(tile, data, w, pitch, p.rev, dir == Forward) })
						}
						s := p.firstTabS
						for _, tw := range p.tw4[dir] {
							src := planted(n * w)
							check(fmt.Sprintf("s=%d in place", s), n*w,
								func(tile []complex128) { copy(tile, src); radix4Rows(tile, w, tile, w, s, tw, 1, false) },
								func(tile []complex128) { copy(tile, src); radix4RowsVec(tile, w, tile, w, s, tw, 1, false) })
							for _, scale := range []float64{1, 1 / float64(n)} {
								check(fmt.Sprintf("s=%d to %g", s, scale), (n-1)*pitch+w,
									func(dst []complex128) { radix4Rows(dst, pitch, src, w, s, tw, scale, scale != 1) },
									func(dst []complex128) { radix4RowsVec(dst, pitch, src, w, s, tw, scale, scale != 1) })
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
		"pairs/odd w":            func() { pairsRowsVec(x(128*3), x(128*3), 3, 3, p128.rev) },
		"pairs/w below 2":        func() { pairsRowsVec(x(128), x(128), 0, 4, p128.rev) },
		"pairs/short tile":       func() { pairsRowsVec(x(128*4-1), x(128*4), 4, 4, p128.rev) },
		"pairs/short data":       func() { pairsRowsVec(x(128*4), x(127*6+3), 4, 6, p128.rev) },
		"pairs/pitch below w":    func() { pairsRowsVec(x(128*4), x(128*4), 4, 2, p128.rev) },
		"pairs/odd table":        func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, p128.rev[:3]) },
		"pairs/empty table":      func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, nil) },
		"pairs/index past table": func() { pairsRowsVec(x(128*4), x(128*4), 4, 4, badRev) },
		"quads/odd w":            func() { quadsRowsVec(x(64*5), x(64*5), 5, 5, p64.rev, true) },
		"quads/short data":       func() { quadsRowsVec(x(64*2), x(64*2-1), 2, 2, p64.rev, false) },
		"quads/table not 4s":     func() { quadsRowsVec(x(64*2), x(64*2), 2, 2, p64.rev[:6], true) },
		"pass/odd w":             func() { radix4RowsVec(x(64*3), 3, x(64*3), 3, 4, tw, 1, false) },
		"pass/w below 2":         func() { radix4RowsVec(x(64), 1, x(64), 1, 4, tw, 1, false) },
		"pass/s below 1":         func() { radix4RowsVec(x(64*2), 2, x(64*2), 2, 0, tw, 1, false) },
		"pass/rows not 4s":       func() { radix4RowsVec(x(24*2), 2, x(24*2), 2, 4, tw, 1, false) },
		"pass/ragged src":        func() { radix4RowsVec(x(64*4), 4, x(64*4-2), 4, 4, tw, 1, false) },
		"pass/empty":             func() { radix4RowsVec(nil, 2, nil, 2, 4, tw, 1, false) },
		"pass/short twiddles":    func() { radix4RowsVec(x(64*2), 2, x(64*2), 2, 16, tw, 1, false) },
		"pass/dpitch below w":    func() { radix4RowsVec(x(64*4), 2, x(64*4), 4, 4, tw, 1, false) },
		"pass/short dst":         func() { radix4RowsVec(x(63*6+3), 6, x(64*4), 4, 4, tw, 1, true) },
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
