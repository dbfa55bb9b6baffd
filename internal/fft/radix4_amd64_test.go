package fft

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
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

// specials are planted into otherwise normal inputs: signed zeros, denormals
// and infinities, each in the real and in the imaginary component.
var specials = []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, math.Inf(1), math.Inf(-1)}

func plantedSignal(rng *rand.Rand, n, nSpecials int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for k := 0; k < nSpecials; k++ {
		i, v := rng.Intn(n), specials[k%len(specials)]
		if k/len(specials)%2 == 0 {
			x[i] = complex(v, imag(x[i]))
		} else {
			x[i] = complex(real(x[i]), v)
		}
	}
	return x
}

// sameBits reports the first index where a and b differ in any bit, NaNs
// compared as NaN-ness only (which operand's payload survives is not part of
// the contract), or -1.
func sameBits(a, b []complex128) int {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range a {
		if !same(real(a[i]), real(b[i])) || !same(imag(a[i]), imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestRadix4AsmBitIdentical holds radix4AVX2 to the Go loops it replaces, bit
// for bit: every pass of every plan length, both directions, in place, scaled
// and to a second array. Defined at the default GOAMD64=v1, the level the
// golden fingerprints were generated at.
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
						check(fmt.Sprintf("scaled %g", scale),
							func(dst, src []complex128) { radix4PassScaled(src, s, tw, scale); copy(dst, src) },
							func(dst, src []complex128) { radix4Vec(src, src, s, tw, scale, true); copy(dst, src) })
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
