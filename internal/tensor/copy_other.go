//go:build !amd64 || race

package tensor

import "unsafe"

// Only non-race amd64 builds have the copy kernel; everywhere else copyRuns
// calls copy once per run.
const useSSE2 = false

func copyBlock(dst, src unsafe.Pointer, d, s runs, size int) {
	panic("tensor: copyBlock without the kernel")
}
