//go:build !race

package tensor

import "unsafe"

// useSSE2 selects copyBlockSSE2 for copyRuns. Every amd64 CPU has SSE2; race
// builds compile copy_other.go instead, because the detector cannot see
// assembly loads and stores. Only tests flip it.
var useSSE2 = true

// prefetchLead is how far, in bytes of runs, the kernel's prefetches run ahead
// of its copy: about a page, so a reshape's short runs on cold lines have
// their misses in flight together instead of one after the other. A run of b
// bytes is prefetched clamp(prefetchLead ÷ b, 2, 32) runs ahead. Runs of
// prefetchLead bytes or more are not prefetched: the hardware streamer
// follows them by itself, and prefetching them ahead of it slows the copy.
const prefetchLead = 4096

// copyBlock copies the placement s of a block of runs out of src into the
// placement d in dst, both already sliced to the block, with one kernel call;
// size is the element size.
func copyBlock(dst, src unsafe.Pointer, d, s runs, size int) {
	rows, run, ahead := d.n0*d.n1, d.run*size, 0
	if run < prefetchLead {
		ahead = min(max(prefetchLead/run, 2), 32, rows)
	}
	copyBlockSSE2(dst, src, rows, d.n1, run, d.st0*size, d.st1*size, s.st0*size, s.st1*size, ahead)
}

// copyBlockSSE2 is implemented in copy_amd64.s.
//
//go:noescape
func copyBlockSSE2(dst, src unsafe.Pointer, rows, n1, run, dst0, dst1, src0, src1, ahead int)
