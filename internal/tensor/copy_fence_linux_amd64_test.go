//go:build !race

package tensor

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"
)

// fenced returns n elements that end where a page the process may not touch
// begins, so a load or store past the last element faults.
func fenced[T complex128 | float64](t *testing.T, n int) []T {
	t.Helper()
	page, size := syscall.Getpagesize(), n*int(unsafe.Sizeof(T(0)))
	mapped := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, mapped+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[mapped:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[mapped-size])), n)
}

// TestCopyKernelStaysInBlock copies blocks whose source and destination both
// end at the last run's last element, right before a page that faults: a load
// or store past the block crashes the test. (A prefetch never faults, so no
// test sees where the prefetch cursor points.)
func TestCopyKernelStaysInBlock(t *testing.T) {
	for _, run := range []int{1, 3, 8, 40, 255, 300} {
		for n0 := 1; n0 <= 3; n0++ {
			for _, n1 := range []int{1, 7, 32, 40} {
				d := runs{n0: n0, n1: n1, st1: run + 3, run: run}
				s := runs{n0: n0, n1: n1, st1: run + 5, run: run}
				d.st0, s.st0 = n1*d.st1+1, n1*s.st1
				dn, sn := (n0-1)*d.st0+(n1-1)*d.st1+run, (n0-1)*s.st0+(n1-1)*s.st1+run
				t.Run(fmt.Sprintf("%dx%dx%d", n0, n1, run), func(t *testing.T) {
					copyRuns(fenced[complex128](t, dn), d, fenced[complex128](t, sn), s)
					copyRuns(fenced[float64](t, dn), d, fenced[float64](t, sn), s)
				})
			}
		}
	}
}
