//go:build !amd64

package fft

// Only amd64 has vector routines for the row stages and passes and the real
// split and merge; everywhere else the Go loops in rows.go and real.go are
// the implementation.
const useAVX2 = false

func pairsRowsVec(tile, data []complex128, w, pitch, lane int, p *Plan) {
	panic("fft: pairsRowsVec without a vector routine")
}

func quadsRowsVec(tile, data []complex128, w, pitch, lane int, p *Plan, fwd bool) {
	panic("fft: quadsRowsVec without a vector routine")
}

func radix4RowsVec(dst []complex128, dpitch, dlane int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool) {
	panic("fft: radix4RowsVec without a vector routine")
}

func splitRowsVec(tile []complex128, w, h int, spec []complex128, ss, sd int, tw []complex128) {
	panic("fft: splitRowsVec without a vector routine")
}

func mergeRowsVec(spec []complex128, ss, sd int, ztile []complex128, w, h int, tw []complex128) {
	panic("fft: mergeRowsVec without a vector routine")
}
