//go:build !race

package fft

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// fenced returns n complex values that end where a page the process may not
// touch begins, so a load or store past the last element faults.
func fenced(t *testing.T, n int) []complex128 {
	t.Helper()
	page, size := syscall.Getpagesize(), n*16
	mapped := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*complex128)(unsafe.Pointer(&mem[mapped-size])), n)
}

// TestSplitMergeVecStaysInArrays runs splitRowsAVX2 and mergeRowsAVX2 on a
// tile, a spectrum and a twiddle table that each end at the last element the
// routine may touch, right before a page that faults: a load or store past
// any of them crashes the test.
func TestSplitMergeVecStaysInArrays(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU or OS without AVX2")
	}
	for _, n := range []int{16, 64, 10} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		h := n / 2
		for _, w := range []int{2, 6, p.half.tileLines} {
			for _, lay := range []struct{ ss, sd int }{{w, 1}, {1, h + 1}, {1, 3*h + 5}} {
				t.Run(fmt.Sprintf("n=%d/w=%d/ss=%d/sd=%d", n, w, lay.ss, lay.sd), func(t *testing.T) {
					tw := fenced(t, h+1)
					copy(tw, p.tw)
					size := h*lay.ss + (w-1)*lay.sd + 1
					tile, spec := fenced(t, h*w), fenced(t, size)
					for i := range tile {
						tile[i] = complex(float64(i), 1)
					}
					splitRowsVec(tile, w, h, spec, lay.ss, lay.sd, tw)
					mergeRowsVec(spec, lay.ss, lay.sd, fenced(t, h*w), w, h, tw)
				})
			}
		}
	}
}

// TestRowsVecStaysInArrays runs the row routines at each width through a
// whole transform — the first stage, the in-place passes, the last pass into
// the caller's lanes — on a data array, a tile and per-pass twiddle tables
// that each end at the last element the routine may touch, right before a
// page that faults: a load or store past any of them crashes the test, a
// 64-byte access where a row ends in a two-lane step among them. Groups of 2,
// 4, 6 and tileLines lanes at lane 1 (pitch w), n (pitch 1) and 0 (pitch 1,
// every lane the same line), both directions, radix-2 and radix-4 first
// stages.
func TestRowsVecStaysInArrays(t *testing.T) {
	forEachRowWidth(t, func(t *testing.T) {
		for _, n := range []int{8, 16, 64, 128} {
			p := NewPlan(n)
			for _, w := range []int{2, 4, 6, p.tileLines} {
				for _, lay := range []struct{ pitch, lane int }{{w, 1}, {1, n}, {1, 0}} {
					t.Run(fmt.Sprintf("n=%d/w=%d/lane=%d", n, w, lay.lane), func(t *testing.T) {
						data := fenced(t, (n-1)*lay.pitch+(w-1)*lay.lane+1)
						for i := range data {
							data[i] = complex(float64(i), 1)
						}
						tile := fenced(t, n*w)
						for _, dir := range []Direction{Forward, Inverse} {
							if p.preRadix2 {
								pairsRowsVec(tile, data, w, lay.pitch, lay.lane, p)
							} else {
								quadsRowsVec(tile, data, w, lay.pitch, lay.lane, p, dir == Forward)
							}
							passes, s, scale := p.tw4[dir], p.firstTabS, p.outScale(dir)
							for i, tw := range passes {
								ftw := unsafe.Slice((*twiddle3)(unsafe.Pointer(&fenced(t, 3*s)[0])), s)
								copy(ftw, tw[:s])
								if i < len(passes)-1 {
									radix4RowsVec(tile, w, 1, tile, w, s, ftw, 1, false)
								} else {
									radix4RowsVec(data, lay.pitch, lay.lane, tile, w, s, ftw, scale, scale != 1)
								}
								s *= 4
							}
						}
					})
				}
			}
		}
	})
}
