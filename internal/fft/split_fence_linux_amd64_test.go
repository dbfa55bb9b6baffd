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
