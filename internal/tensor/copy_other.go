//go:build !amd64 || race

package tensor

import "unsafe"

// Only non-race amd64 builds have the copy kernel; everywhere else copyRuns
// calls copy once per run.
const useSSE2 = false

func copyRunsSSE2(dst, src unsafe.Pointer, rows, run, dstStride, srcStride int) {
	panic("tensor: copyRunsSSE2 without the kernel")
}
