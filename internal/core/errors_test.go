package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// TestSentinelErrors checks that the constructors classify failures with the
// typed sentinels (wrapped, so errors.Is sees through the context messages).
func TestSentinelErrors(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		check := func(label string, err, want error) {
			if err == nil {
				t.Errorf("%s: expected an error", label)
				return
			}
			if !errors.Is(err, want) {
				t.Errorf("%s: error %q does not wrap %q", label, err, want)
			}
		}

		_, err := NewPlan(c, Config{Global: [3]int{0, 4, 4}})
		check("zero extent", err, ErrBadConfig)

		_, err = NewPlan(c, Config{Global: [3]int{4, 4, 4}, Opts: Options{PQ: [2]int{3, 1}}})
		check("pencil grid mismatch", err, ErrBadConfig)

		short := []tensor.Box3{tensor.FullBox([3]int{4, 4, 4})}
		_, err = NewPlan(c, Config{Global: [3]int{4, 4, 4}, InBoxes: short})
		check("box count", err, ErrMismatchedBoxes)

		_, err = NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 5}})
		check("odd N2", err, ErrBadConfig)

		// ShrinkThreshold and Decomp are honoured or rejected, never dropped.
		_, err = NewPlan(c, Config{Global: [3]int{4, 4, 4}, Opts: Options{ShrinkThreshold: -5}})
		check("negative shrink threshold", err, ErrBadConfig)
		for _, opts := range []Options{{ShrinkThreshold: -5}, {ShrinkThreshold: 16}, {Decomp: DecompSlabs}, {Decomp: DecompBricks}} {
			_, err = NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 4}, Opts: opts})
			check(fmt.Sprintf("real plan, shrink %d, %v", opts.ShrinkThreshold, opts.Decomp), err, ErrBadConfig)
		}
	})
}

// TestPlanClose checks the Close lifecycle: idempotent, and executions after
// Close fail with ErrPlanClosed (a RealPlan shares the closed flag and its
// check).
func TestPlanClose(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{8, 8, 8}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := NewField(p.InBox())
		f.FillRandom(int64(c.Rank() + 1))
		if err := p.Forward(f); err != nil {
			t.Errorf("Forward before Close: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
		if err := p.Forward(f); !errors.Is(err, ErrPlanClosed) {
			t.Errorf("Forward after Close: got %v, want ErrPlanClosed", err)
		}

		rp, err := NewRealPlan(c, RealConfig{Global: [3]int{8, 8, 8}})
		if err != nil {
			t.Errorf("NewRealPlan: %v", err)
			return
		}
		rp.closed = true
		rf := NewRealField(rp.InBox())
		if _, err := rp.Forward(rf); !errors.Is(err, ErrPlanClosed) {
			t.Errorf("RealPlan.Forward after Close: got %v, want ErrPlanClosed", err)
		}
	})
}

// xzSlabs distributes an n³ grid over ranks as slabs along axis 0 and along
// axis 2.
func xzSlabs(n, ranks int) (x, z []tensor.Box3) {
	for r := 0; r < ranks; r++ {
		lo, hi := r*n/ranks, (r+1)*n/ranks
		x = append(x, tensor.NewBox(lo, 0, 0, hi, n, n))
		z = append(z, tensor.NewBox(0, 0, lo, n, n, hi))
	}
	return x, z
}

// TestFieldBoxMismatchIsTyped: every execution entry point shares the stage
// runner's entry check, and a field that does not sit on the box the plan
// expects fails it with ErrMismatchedBoxes on every rank. The case users meet
// is Inverse after Forward on a plan whose input and output distributions
// differ: Inverse walks the same stage list and takes its input on InBox.
func TestFieldBoxMismatchIsTyped(t *testing.T) {
	const n, ranks = 8, 4
	in, out := xzSlabs(n, ranks)
	global := [3]int{n, n, n}
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		mismatched := func(label string, err error) {
			if !errors.Is(err, ErrMismatchedBoxes) {
				t.Errorf("rank %d: %s: got %v, want ErrMismatchedBoxes", c.Rank(), label, err)
			}
		}
		p, err := NewPlan(c, Config{Global: global, InBoxes: in, OutBoxes: out,
			Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			c.Fail(err)
		}
		f := NewField(p.InBox())
		f.FillRandom(int64(c.Rank() + 1))
		if err := p.Forward(f); err != nil {
			t.Errorf("rank %d: Forward: %v", c.Rank(), err)
		}
		if !f.Box.Equal(p.OutBox()) {
			t.Errorf("rank %d: Forward left the field on %v, want OutBox %v", c.Rank(), f.Box, p.OutBox())
		}
		mismatched("Inverse on Forward's output", p.Inverse(f))
		// The same field — on OutBox, not InBox — through the other entry points.
		mismatched("ForwardBatch", p.ForwardBatch([]*Field{f}))
		mismatched("ForwardPipelined", p.ForwardPipelined([]*Field{f}))
		short := &Field{Box: p.InBox(), Data: make([]complex128, p.InBox().Volume()-1)}
		mismatched("short data array", p.Forward(short))

		rp, err := NewRealPlan(c, RealConfig{Global: global})
		if err != nil {
			c.Fail(err)
		}
		_, err = rp.ForwardBatch([]*RealField{NewRealField(p.OutBox())})
		mismatched("RealPlan.ForwardBatch", err)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}
