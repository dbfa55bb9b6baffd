//go:build !amd64

package fft

// Only amd64 has a vector routine for the twiddled passes; everywhere else
// the Go loops in kernel.go are the implementation.
const useAVX2 = false

func radix4Vec(dst, src []complex128, s int, tw []twiddle3, scale float64, scaled bool) {
	panic("fft: radix4Vec without a vector routine")
}
