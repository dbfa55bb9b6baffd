package heffte_test

import (
	"context"
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/heffte"
)

// TestNewPlanWith checks NewPlan with the geometry options of a Config set:
// the plan reports them back, and the transform round-trips.
func TestNewPlanWith(t *testing.T) {
	w := heffte.NewWorld(heffte.Summit(), 4, heffte.WorldOptions{GPUAware: true})
	w.Run(func(c *heffte.Comm) {
		plan, err := heffte.NewPlan(c, heffte.Config{Global: [3]int{16, 16, 16}, Opts: heffte.Options{
			Decomp:     heffte.DecompPencils,
			Backend:    heffte.BackendP2P,
			Contiguous: true,
			PQ:         [2]int{2, 2},
		}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		if plan.Decomp() != heffte.DecompPencils {
			t.Errorf("decomp = %v, want pencils", plan.Decomp())
		}
		if pg, qg := plan.PencilGrid(); pg != 2 || qg != 2 {
			t.Errorf("pencil grid = %d×%d, want 2×2", pg, qg)
		}
		f := heffte.NewField(plan.InBox())
		f.FillRandom(int64(c.Rank() + 7))
		orig := append([]complex128(nil), f.Data...)
		if err := plan.Forward(f); err != nil {
			t.Errorf("Forward: %v", err)
			return
		}
		if err := plan.Inverse(f); err != nil {
			t.Errorf("Inverse: %v", err)
			return
		}
		// The output distribution equals the input here, so compare in place.
		for i := range orig {
			if cmplx.Abs(f.Data[i]-orig[i]) > 1e-9 {
				t.Errorf("rank %d: round trip differs at %d", c.Rank(), i)
				return
			}
		}
		if err := plan.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := plan.Forward(f); !errors.Is(err, heffte.ErrPlanClosed) {
			t.Errorf("Forward after Close: got %v, want ErrPlanClosed", err)
		}
	})
}

// TestFacadeCollectiveOptions: the collective configuration reaches the plan,
// CommPhases reports what each reshape resolved to, and the context-first
// entry points run clean transforms through the facade.
func TestFacadeCollectiveOptions(t *testing.T) {
	w := heffte.NewWorld(heffte.Summit(), 4, heffte.WorldOptions{GPUAware: true})
	w.Run(func(c *heffte.Comm) {
		plan, err := heffte.NewPlan(c, heffte.Config{Global: [3]int{16, 16, 16}, Opts: heffte.Options{
			Decomp:  heffte.DecompPencils,
			Backend: heffte.BackendAlltoallv,
			Comm:    heffte.CommConfig{Algo: heffte.AlgoRing, Chunks: 2, Overlap: heffte.OverlapOff},
		}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		defer plan.Close()
		phases := plan.CommPhases()
		if len(phases) == 0 {
			t.Error("CommPhases is empty")
		}
		for _, ph := range phases {
			if ph.GroupSize <= 1 {
				continue
			}
			if ph.Algo != heffte.AlgoRing {
				t.Errorf("phase %s: algo = %v, want ring", ph.Label, ph.Algo)
			}
			if ph.Chunks != 2 || ph.Overlap {
				t.Errorf("phase %s: chunks=%d overlap=%v, want 2 serial", ph.Label, ph.Chunks, ph.Overlap)
			}
		}
		f := heffte.NewField(plan.InBox())
		f.FillRandom(int64(c.Rank() + 3))
		orig := append([]complex128(nil), f.Data...)
		if err := plan.ForwardCtx(context.Background(), f); err != nil {
			t.Errorf("ForwardCtx: %v", err)
			return
		}
		if err := plan.InverseCtx(context.Background(), f); err != nil {
			t.Errorf("InverseCtx: %v", err)
			return
		}
		for i := range orig {
			if cmplx.Abs(f.Data[i]-orig[i]) > 1e-9 {
				t.Errorf("rank %d: ctx round trip differs at %d", c.Rank(), i)
				return
			}
		}
	})
}

// TestFacadeSentinels checks the sentinel re-exports classify constructor
// failures through the facade.
func TestFacadeSentinels(t *testing.T) {
	w := heffte.NewWorld(heffte.Summit(), 2, heffte.WorldOptions{GPUAware: true})
	w.Run(func(c *heffte.Comm) {
		if _, err := heffte.NewPlan(c, heffte.Config{Global: [3]int{0, 8, 8}}); !errors.Is(err, heffte.ErrBadConfig) {
			t.Errorf("zero extent: got %v, want ErrBadConfig", err)
		}
		bad := []heffte.Box3{heffte.NewBox(0, 0, 0, 8, 8, 8)}
		if _, err := heffte.NewPlan(c, heffte.Config{Global: [3]int{8, 8, 8}, InBoxes: bad}); !errors.Is(err, heffte.ErrMismatchedBoxes) {
			t.Errorf("short box list: got %v, want ErrMismatchedBoxes", err)
		}
	})
}

// TestFacadeTune smoke-tests the tuning passthrough: predictions are
// positive, the best candidate is measured, and ranking is consistent.
func TestFacadeTune(t *testing.T) {
	w := heffte.NewWorld(heffte.Summit(), 4, heffte.WorldOptions{GPUAware: true})
	var results []heffte.TuneResult
	w.Run(func(c *heffte.Comm) {
		cands := []heffte.TuneCandidate{
			{Decomp: heffte.DecompPencils, Backend: heffte.BackendAlltoallv},
			{Decomp: heffte.DecompSlabs, Backend: heffte.BackendAlltoallv},
		}
		rs, err := heffte.Tune(c, heffte.Config{Global: [3]int{16, 16, 16}}, cands, heffte.TuneOptions{Measure: 2})
		if err != nil {
			t.Errorf("Tune: %v", err)
			return
		}
		if c.Rank() == 0 {
			results = rs
		}
	})
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	best := heffte.Best(results)
	if best.MeasuredSec <= 0 || math.IsNaN(best.MeasuredSec) {
		t.Errorf("best candidate not measured: %+v", best)
	}
	for _, r := range results {
		if r.PredictedSec <= 0 {
			t.Errorf("candidate %v has no prediction", r.Candidate)
		}
	}
	if len(heffte.DefaultCandidates()) == 0 {
		t.Error("DefaultCandidates is empty")
	}
}
