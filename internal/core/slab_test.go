package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// TestSlabStageBatched pins the slab stage's two batched calls per field (rows
// of all planes, then their columns as one nested call) to the per-plane
// fft.Transform2D loop they replaced, bit for bit, and checks that execution
// never looks a kernel plan up: both are resolved when the stage is built.
// The cache is shrunk to one foreign entry once every rank has its plan; a
// lookup during the transforms would evict it.
func TestSlabStageBatched(t *testing.T) {
	const ranks = 8
	for _, global := range [][3]int{{32, 32, 32}, {64, 64, 64}, {48, 64, 80}} {
		for _, dir := range []fft.Direction{fft.Forward, fft.Inverse} {
			t.Run(fmt.Sprintf("%v/%v", global, dir), func(t *testing.T) {
				n0, n1, n2 := global[0], global[1], global[2]
				x := globalSignal(global, 61)
				want := append([]complex128(nil), x...)
				for i0 := 0; i0 < n0; i0++ {
					fft.Transform2D(want[i0*n1*n2:(i0+1)*n1*n2], n1, n2, dir)
				}
				fft.NewPlan(n0).TransformBatch(want, n1*n2, 1, n1*n2, dir)

				cfg := Config{Global: global, Opts: Options{Decomp: DecompSlabs, Backend: BackendAlltoallv}}
				w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
				datas := make([][]complex128, ranks)
				boxes := make([]tensor.Box3, ranks)
				var built sync.WaitGroup
				built.Add(ranks)
				var evict sync.Once
				var limit int
				var sentinel *fft.Plan
				w.Run(func(c *mpisim.Comm) {
					p, err := NewPlan(c, cfg)
					if err != nil {
						panic(err)
					}
					f := &Field{Box: p.InBox(), Data: scatter(x, global, p.InBox())}
					built.Done()
					built.Wait()
					evict.Do(func() {
						limit = fft.SetPlanCacheLimit(1)
						sentinel = fft.NewPlan(7)
					})
					if err := p.execute([]*Field{f}, dir); err != nil {
						panic(err)
					}
					datas[c.Rank()], boxes[c.Rank()] = f.Data, f.Box
				})
				looked := fft.NewPlan(7) != sentinel
				fft.SetPlanCacheLimit(limit)
				if looked {
					t.Error("a kernel plan was looked up during execution")
				}
				got := gather(global, boxes, datas)
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("element %d = %v, per-plane Transform2D gives %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
