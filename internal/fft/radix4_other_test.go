//go:build !amd64

package fft

// rowWidths is empty: only amd64 has vector row routines.
func rowWidths() []rowWidth { return nil }
