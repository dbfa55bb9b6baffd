package fft

import "fmt"

// useAVX2 selects radix4AVX2 for the twiddled passes. It is a property of the
// machine, fixed at package init: the CPU and the OS support AVX2, and the
// build is not a race build (the detector cannot see assembly loads and
// stores, so race builds execute the Go reference passes). Only tests flip it.
var useAVX2 = !raceEnabled && cpuHasAVX2()

// radix4AVX2, cpuid and xgetbv are implemented in radix4_amd64.s.
//
//go:noescape
func radix4AVX2(dst, src *complex128, n, s int, tw *twiddle3, scale float64, scaled bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether AVX2 instructions may execute: the CPU has AVX
// and AVX2, and the OS saves the XMM and YMM state (OSXSAVE, XCR0 bits 1–2).
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// radix4Vec runs one twiddled radix-4 pass from src to dst (the same array for
// an in-place pass) through radix4AVX2, multiplying the outputs by
// complex(scale, 0) when scaled. Assembly has no bounds checks, so everything
// it relies on is checked here.
func radix4Vec(dst, src []complex128, s int, tw []twiddle3, scale float64, scaled bool) {
	n := len(src)
	if s < 2 || s%2 != 0 || n == 0 || n%(4*s) != 0 || len(tw) < s || len(dst) < n {
		panic(fmt.Sprintf("fft: invalid radix-4 pass s=%d len(src)=%d len(dst)=%d len(tw)=%d", s, n, len(dst), len(tw)))
	}
	radix4AVX2(&dst[0], &src[0], n, s, &tw[0], scale, scaled)
}
