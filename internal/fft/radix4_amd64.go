package fft

import (
	"fmt"
	"math/bits"
)

// useAVX2 selects the AVX2 routines for the row stages and passes and the
// real split and merge. It is a property of the machine, fixed at
// package init: the CPU and the OS support AVX2, and the build is not a race
// build (the detector cannot see assembly loads and stores, so race builds
// execute the Go reference passes). Only tests flip it.
var useAVX2 = !raceEnabled && cpuHasAVX2()

// useAVX512 selects the AVX-512 forms of the three row routines, four lanes
// per register where the AVX2 forms take two. It is fixed at package init
// like useAVX2, which it implies: the CPU has AVX-512F and the OS saves the
// ZMM state. Only tests flip it.
var useAVX512 = useAVX2 && cpuHasAVX512()

// The row routines at both widths, the real split and merge routines, cpuid
// and xgetbv are implemented in radix4_amd64.s.
//
//go:noescape
func pairsRowsAVX2(tile, data *complex128, w, pitch, lane int, rev *int32, n int)

//go:noescape
func quadsRowsAVX2(tile, data *complex128, w, pitch, lane int, rev *int32, n int, fwd bool)

//go:noescape
func radix4RowsAVX2(dst *complex128, dpitch, dlane int, src *complex128, w, n, s int, tw *twiddle3, scale float64, scaled bool)

//go:noescape
func pairsRowsAVX512(tile, data *complex128, w, pitch, lane int, rev *int32, n int)

//go:noescape
func quadsRowsAVX512(tile, data *complex128, w, pitch, lane int, rev *int32, n int, fwd bool)

//go:noescape
func radix4RowsAVX512(dst *complex128, dpitch, dlane int, src *complex128, w, n, s int, tw *twiddle3, scale float64, scaled bool)

//go:noescape
func splitRowsAVX2(spec *complex128, ss, sd int, tile *complex128, w, h int, tw *complex128)

//go:noescape
func mergeRowsAVX2(ztile *complex128, w, h int, spec *complex128, ss, sd int, tw *complex128)

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

// cpuHasAVX512 reports whether AVX-512F instructions may execute as well: the
// CPU has AVX2 and AVX-512F, and the OS saves the XMM and YMM state and the
// opmask and ZMM state (XCR0 bits 1–2 and 5–7).
func cpuHasAVX512() bool {
	if !cpuHasAVX2() {
		return false
	}
	const zmm = 1<<5 | 1<<6 | 1<<7 // opmask, ZMM0–15's upper halves, ZMM16–31
	if xcr0, _ := xgetbv(); xcr0&zmm != zmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}

// rowsFit reports whether the elements i·pitch + l·lane, i < n, l < w, lie
// inside an array of length size and are nested (rowsNested): no two of them
// coincide unless lane is 0, which makes every lane of a row one element
// (n, w, pitch >= 1; lane >= 0).
func rowsFit(size, n, w, pitch, lane int) bool {
	return rowsInside(size, n, w, pitch, lane) && rowsNested(n, w, pitch, lane)
}

// rowsInside reports whether the elements i·pitch + l·lane, i < n, l < w, lie
// inside an array of length size (n, w >= 1; pitch, lane >= 0). The extents
// are 128-bit products, so no argument wraps them.
func rowsInside(size, n, w, pitch, lane int) bool {
	hr, rows := bits.Mul64(uint64(n-1), uint64(pitch))
	hl, lanes := bits.Mul64(uint64(w-1), uint64(lane))
	return hr|hl == 0 && rows < uint64(size) && lanes < uint64(size)-rows
}

// checkFirstRows panics unless a first row stage of radix r (2 or 4) of plan p
// stays inside its arrays: w even and at least 2, n = len(p.rev) a positive
// multiple of r, n packed rows of w in tile, and n rows of w lanes at
// (pitch, lane) in data. The table itself was checked when initPow2 built it
// (checkRev), so no call walks it.
func checkFirstRows(tile, data []complex128, w, pitch, lane int, p *Plan, r int) {
	n := len(p.rev)
	if w < 2 || w%2 != 0 || n == 0 || n%r != 0 || pitch < 1 || lane < 0 || !rowsFit(len(tile), n, w, w, 1) || !rowsFit(len(data), n, w, pitch, lane) {
		panic(fmt.Sprintf("fft: invalid radix-%d row stage w=%d pitch=%d lane=%d len(rev)=%d len(tile)=%d len(data)=%d", r, w, pitch, lane, n, len(tile), len(data)))
	}
}

// pairsRowsVec, quadsRowsVec and radix4RowsVec run pairsRows, quadsRows and
// radix4Rows through their vector routines, after checking every extent the
// assembly relies on: the AVX-512 routine where useAVX512 and a row holds a
// whole ZMM (w >= 4), else the AVX2 routine. A group of two lanes — a line
// on its own, any group of lines of 1024 points or more — has no four-lane
// step: the AVX2 routine's loop is its two-lane step alone. The first stages
// take their table from the plan, the only place one is built.
func pairsRowsVec(tile, data []complex128, w, pitch, lane int, p *Plan) {
	checkFirstRows(tile, data, w, pitch, lane, p, 2)
	if useAVX512 && w >= 4 {
		pairsRowsAVX512(&tile[0], &data[0], w, pitch, lane, &p.rev[0], len(p.rev))
		return
	}
	pairsRowsAVX2(&tile[0], &data[0], w, pitch, lane, &p.rev[0], len(p.rev))
}

func quadsRowsVec(tile, data []complex128, w, pitch, lane int, p *Plan, fwd bool) {
	checkFirstRows(tile, data, w, pitch, lane, p, 4)
	if useAVX512 && w >= 4 {
		quadsRowsAVX512(&tile[0], &data[0], w, pitch, lane, &p.rev[0], len(p.rev), fwd)
		return
	}
	quadsRowsAVX2(&tile[0], &data[0], w, pitch, lane, &p.rev[0], len(p.rev), fwd)
}

func radix4RowsVec(dst []complex128, dpitch, dlane int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool) {
	n := 0
	if w >= 2 && w%2 == 0 {
		n = len(src) / w
	}
	if s < 1 || n == 0 || n%(4*s) != 0 || len(src) != n*w || len(tw) < s || dpitch < 1 || dlane < 0 || !rowsFit(len(dst), n, w, dpitch, dlane) {
		panic(fmt.Sprintf("fft: invalid radix-4 row pass w=%d s=%d len(src)=%d dpitch=%d dlane=%d len(dst)=%d len(tw)=%d", w, s, len(src), dpitch, dlane, len(dst), len(tw)))
	}
	if useAVX512 && w >= 4 {
		radix4RowsAVX512(&dst[0], dpitch, dlane, &src[0], w, n, s, &tw[0], scale, scaled)
		return
	}
	radix4RowsAVX2(&dst[0], dpitch, dlane, &src[0], w, n, s, &tw[0], scale, scaled)
}

// checkSplitMerge panics unless a split or merge of lanes 0 … w&^1 − 1 stays
// inside its arrays: w >= 2, h >= 1, h rows of w packed lanes in tile, twiddles
// tw[0 … h], and spectrum rows 0 … h of those lanes at (ss, sd) in spec.
func checkSplitMerge(tile []complex128, w, h int, spec []complex128, ss, sd int, tw []complex128) {
	if w < 2 || h < 1 || ss < 0 || sd < 0 || len(tw) <= h || !rowsInside(len(tile), h, w, w, 1) || !rowsInside(len(spec), h+1, w&^1, ss, sd) {
		panic(fmt.Sprintf("fft: invalid real split or merge w=%d h=%d ss=%d sd=%d len(tile)=%d len(spec)=%d len(tw)=%d", w, h, ss, sd, len(tile), len(spec), len(tw)))
	}
}

// splitRowsVec and mergeRowsVec run splitLanes and mergeLanes for lanes
// 0 … w&^1 − 1 of a half-length h through their AVX2 routines, after checking
// every extent the assembly relies on.
func splitRowsVec(tile []complex128, w, h int, spec []complex128, ss, sd int, tw []complex128) {
	checkSplitMerge(tile, w, h, spec, ss, sd, tw)
	splitRowsAVX2(&spec[0], ss, sd, &tile[0], w, h, &tw[0])
}

func mergeRowsVec(spec []complex128, ss, sd int, ztile []complex128, w, h int, tw []complex128) {
	checkSplitMerge(ztile, w, h, spec, ss, sd, tw)
	mergeRowsAVX2(&ztile[0], w, h, &spec[0], ss, sd, &tw[0])
}
