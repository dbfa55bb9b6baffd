//go:build !race

package tensor

import "unsafe"

// useSSE2 selects copyRunsSSE2 for copyRuns. Every amd64 CPU has SSE2; race
// builds compile copy_other.go instead, because the detector cannot see
// assembly loads and stores. Only tests flip it.
var useSSE2 = true

// copyRunsSSE2 is implemented in copy_amd64.s.
//
//go:noescape
func copyRunsSSE2(dst, src unsafe.Pointer, rows, run, dstStride, srcStride int)
