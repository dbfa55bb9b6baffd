package turb

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func TestConfigValidation(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		if _, err := New(c, Config{Grid: [3]int{2, 8, 8}}); err == nil {
			t.Error("expected error for tiny grid")
		}
		if _, err := New(c, Config{Grid: [3]int{8, 8, 8}, Nu: -1}); err == nil {
			t.Error("expected error for negative viscosity")
		}
	})
}

func TestTaylorGreenInitialEnergy(t *testing.T) {
	// ⟨|u|²⟩/2 of the Taylor–Green vortex is 1/8.
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	var e float64
	w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Grid: [3]int{16, 16, 16}, Nu: 0.1})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			e = s.Energy()
		} else {
			s.Energy() // collective
		}
	})
	if math.Abs(e-0.125) > 1e-10 {
		t.Errorf("initial energy %g, want 0.125", e)
	}
}

func TestInitialStateDivergenceFree(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	var div float64
	w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Grid: [3]int{16, 16, 16}, Nu: 0.1})
		if err != nil {
			panic(err)
		}
		d := s.MaxDivergence()
		if c.Rank() == 0 {
			div = d
		}
	})
	// Spectral divergence of Taylor–Green is exactly zero up to FFT
	// rounding on the O(N) magnitude coefficients.
	if div > 1e-8 {
		t.Errorf("initial divergence %g", div)
	}
}

func TestStepKeepsDivergenceFreeAndDecaysEnergy(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	var e0, e1, div float64
	w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Grid: [3]int{16, 16, 16}, Nu: 0.5, Dt: 5e-3,
			FFT: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		a := s.Energy()
		if err := s.run(3); err != nil {
			panic(err)
		}
		b := s.Energy()
		d := s.MaxDivergence()
		if c.Rank() == 0 {
			e0, e1, div = a, b, d
		}
	})
	if !(e1 < e0) {
		t.Errorf("viscous flow did not lose energy: %g → %g", e0, e1)
	}
	if math.IsNaN(e1) {
		t.Error("energy became NaN")
	}
	if div > 1e-6 {
		t.Errorf("divergence %g after projection steps", div)
	}
}

func TestInviscidEnergyNearlyConserved(t *testing.T) {
	// With ν = 0 and a small dt, energy should change only at the O(dt²)
	// time-integration level over a couple of steps.
	w := mpisim.NewWorld(machine.Summit(), 1, mpisim.Options{GPUAware: true})
	var e0, e1 float64
	w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Grid: [3]int{16, 16, 16}, Nu: 0, Dt: 1e-3})
		if err != nil {
			panic(err)
		}
		e0 = s.Energy()
		if err := s.run(2); err != nil {
			panic(err)
		}
		e1 = s.Energy()
	})
	if rel := math.Abs(e1-e0) / e0; rel > 1e-3 {
		t.Errorf("inviscid energy drift %.2e too large", rel)
	}
}

// TestStepAccumulatesTime: every step charges the virtual clock for its
// batched transforms, so a run of two steps ends later than a run of one.
func TestStepAccumulatesTime(t *testing.T) {
	clock := func(steps int) float64 {
		w := mpisim.NewWorld(machine.Summit(), 12, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			s, err := New(c, Config{Grid: [3]int{16, 16, 16}, Nu: 0.1})
			if err != nil {
				panic(err)
			}
			if err := s.run(steps); err != nil {
				panic(err)
			}
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.MaxClock
	}
	one, two := clock(1), clock(2)
	if one <= 0 || two <= one {
		t.Errorf("virtual time after one step %g, after two %g: a step accumulated no time", one, two)
	}
}

func TestDeterministicEvolution(t *testing.T) {
	run := func() float64 {
		w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
		var e float64
		w.Run(func(c *mpisim.Comm) {
			s, err := New(c, Config{Grid: [3]int{8, 8, 8}, Nu: 0.2, Dt: 1e-2})
			if err != nil {
				panic(err)
			}
			if err := s.run(2); err != nil {
				panic(err)
			}
			v := s.Energy()
			if c.Rank() == 0 {
				e = v
			}
		})
		return e
	}
	if a, b := run(), run(); a != b {
		t.Errorf("evolution not deterministic: %g vs %g", a, b)
	}
}

// run advances the given number of steps.
func (s *Sim) run(steps int) error {
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}
