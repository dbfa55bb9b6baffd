package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
)

// TestContiguousIsChargesOnly holds Options.Contiguous to virtual time: the
// paper's transposed local-FFT mode changes what the reshapes and kernels
// charge, never a payload bit, because internal/fft gives a line the same
// bits in any layout and the host transforms the same lines in place in both
// modes. Every decomposition runs Forward then Inverse on real payloads over
// grids whose axes take, in turn, a codelet length (4), a power of two the row
// engine runs (16) and a Bluestein length (12); both fields must match bit for
// bit in the two modes while the clocks differ.
func TestContiguousIsChargesOnly(t *testing.T) {
	const size = 6
	run := func(global [3]int, d Decomposition, contig bool) (fwd, inv [size][]uint64, clocks []float64) {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		bits := func(f *Field) []uint64 {
			out := make([]uint64, 0, 2*len(f.Data))
			for _, v := range f.Data {
				out = append(out, math.Float64bits(real(v)), math.Float64bits(imag(v)))
			}
			return out
		}
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: d, Backend: BackendAlltoallv, Contiguous: contig}})
			if err != nil {
				panic(err)
			}
			defer p.Close()
			f := NewField(p.InBox())
			f.FillRandom(int64(40 + c.Rank()))
			if err := p.Forward(f); err != nil {
				panic(err)
			}
			fwd[c.Rank()] = bits(f)
			if err := p.Inverse(f); err != nil {
				panic(err)
			}
			inv[c.Rank()] = bits(f)
		})
		if res.Err != nil {
			t.Fatalf("%v %v contiguous=%v: %v", global, d, contig, res.Err)
		}
		return fwd, inv, res.Clocks
	}
	same := func(a, b [size][]uint64) bool {
		for r := range a {
			if !slices.Equal(a[r], b[r]) {
				return false
			}
		}
		return true
	}
	for _, global := range [][3]int{{4, 16, 12}, {16, 12, 4}, {12, 4, 16}} {
		for _, d := range []Decomposition{DecompSlabs, DecompPencils, DecompBricks} {
			t.Run(fmt.Sprintf("%v/%v", global, d), func(t *testing.T) {
				sfwd, sinv, sclk := run(global, d, false)
				cfwd, cinv, cclk := run(global, d, true)
				if !same(sfwd, cfwd) {
					t.Error("Forward output bits differ between the strided and the contiguous mode")
				}
				if !same(sinv, cinv) {
					t.Error("Inverse output bits differ between the strided and the contiguous mode")
				}
				moved := false
				for r := range sclk {
					moved = moved || sclk[r] != cclk[r]
				}
				if !moved {
					t.Errorf("clocks %v are the same in both modes; Contiguous must be charged", sclk)
				}
			})
		}
	}
}
