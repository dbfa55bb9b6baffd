// Package warpx is a proxy of the WarpX electromagnetic particle-in-cell
// code the paper highlights in Section IV.D: WarpX performs its global field
// redistributions with MPI_Alltoallw over derived datatypes (exactly
// Algorithm 2) and "can highly benefit from MPI GPU-aware optimizations".
//
// The proxy runs a spectral Maxwell field update (a PSATD-style step): the
// six E/B field components are moved to spectral space with batched forward
// transforms, rotated analytically (the exact vacuum solution of Maxwell's
// equations in k-space), and moved back. Switching the plan's exchange
// backend between Alltoallw (WarpX's choice) and the tuned alternatives
// quantifies the paper's observation.
package warpx

import (
	"fmt"
	"math"

	"repro/internal/apps/mesh"
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Config describes a field-update run on the periodic box [0,1)³.
type Config struct {
	Grid    [3]int
	Dt      float64 // time step (c=1 units); must satisfy the spectral CFL
	FFT     core.Options
	Phantom bool
}

// Sim holds one rank's six spectral field components:
// 0..2 = Ex,Ey,Ez; 3..5 = Bx,By,Bz.
type Sim struct {
	comm   *mpisim.Comm
	cfg    Config
	plan   *core.Plan
	dom    mesh.Domain
	box    tensor.Box3
	fields [6]*core.Field
}

// New collectively creates a simulation with a standing-wave initial
// condition (E = ŷ·sin(2πx), B = ẑ·sin(2πx)).
func New(c *mpisim.Comm, cfg Config) (*Sim, error) {
	for _, g := range cfg.Grid {
		if g < 4 {
			return nil, fmt.Errorf("warpx: grid %v too small", cfg.Grid)
		}
	}
	if cfg.Dt <= 0 {
		cfg.Dt = 1e-3
	}
	plan, err := core.NewPlan(c, core.Config{Global: cfg.Grid, Opts: cfg.FFT})
	if err != nil {
		return nil, fmt.Errorf("warpx: %w", err)
	}
	s := &Sim{
		comm: c,
		cfg:  cfg,
		plan: plan,
		dom:  mesh.Domain{L: [3]float64{1, 1, 1}, Global: cfg.Grid},
		box:  plan.InBox(),
	}
	if cfg.Phantom {
		for i := range s.fields {
			s.fields[i] = core.NewPhantom(s.box)
		}
		return s, nil
	}
	real6 := make([]*core.Field, 6)
	for i := range real6 {
		real6[i] = core.NewField(s.box)
	}
	idx := 0
	for i0 := s.box.Lo[0]; i0 < s.box.Hi[0]; i0++ {
		x := float64(i0) / float64(cfg.Grid[0])
		v := complex(math.Sin(2*math.Pi*x), 0)
		for i1 := s.box.Lo[1]; i1 < s.box.Hi[1]; i1++ {
			for i2 := s.box.Lo[2]; i2 < s.box.Hi[2]; i2++ {
				real6[1].Data[idx] = v // Ey
				real6[5].Data[idx] = v // Bz
				idx++
			}
		}
	}
	// To spectral space in one batched call (the shape WarpX's PSATD uses).
	if err := plan.ForwardBatch(real6); err != nil {
		return nil, err
	}
	copy(s.fields[:], real6)
	return s, nil
}

// Step advances the fields one PSATD vacuum step: in k-space,
//
//	Ê(t+dt) = cos(k·dt)·Ê + i·sin(k·dt)·(k̂×B̂)
//	B̂(t+dt) = cos(k·dt)·B̂ − i·sin(k·dt)·(k̂×Ê)
//
// which is exact for Maxwell in vacuum — energy is conserved to rounding.
// Each step also round-trips the fields through real space (batched inverse
// + forward), as the production code must to deposit currents, making the
// communication pattern dominant exactly as in WarpX.
func (s *Sim) Step() error {
	if s.cfg.Phantom {
		fields := make([]*core.Field, 6)
		for i := range fields {
			fields[i] = core.NewPhantom(s.box)
		}
		if err := s.plan.InverseBatch(fields); err != nil {
			return err
		}
		back := make([]*core.Field, 6)
		for i := range back {
			back[i] = core.NewPhantom(s.box)
		}
		return s.plan.ForwardBatch(back)
	}

	b := s.fields[0].Box
	idx := 0
	for i0 := b.Lo[0]; i0 < b.Hi[0]; i0++ {
		for i1 := b.Lo[1]; i1 < b.Hi[1]; i1++ {
			for i2 := b.Lo[2]; i2 < b.Hi[2]; i2++ {
				k := [3]float64{
					s.dom.Wavenumber(0, i0),
					s.dom.Wavenumber(1, i1),
					s.dom.Wavenumber(2, i2),
				}
				kn := math.Sqrt(k[0]*k[0] + k[1]*k[1] + k[2]*k[2])
				if kn == 0 {
					idx++
					continue
				}
				kh := [3]float64{k[0] / kn, k[1] / kn, k[2] / kn}
				c := complex(math.Cos(kn*s.cfg.Dt), 0)
				is := complex(0, math.Sin(kn*s.cfg.Dt))
				var e, bb [3]complex128
				for d := 0; d < 3; d++ {
					e[d] = s.fields[d].Data[idx]
					bb[d] = s.fields[d+3].Data[idx]
				}
				kxB := cross(kh, bb)
				kxE := cross(kh, e)
				for d := 0; d < 3; d++ {
					s.fields[d].Data[idx] = c*e[d] + is*kxB[d]
					s.fields[d+3].Data[idx] = c*bb[d] - is*kxE[d]
				}
				idx++
			}
		}
	}

	// Round-trip through real space (current deposition happens there in the
	// production code): one batched inverse + one batched forward over all
	// six components, in place in the simulation's fields — each call hands
	// the plan back the arrays its last one produced, so the plan reuses them.
	if err := s.plan.InverseBatch(s.fields[:]); err != nil {
		return err
	}
	return s.plan.ForwardBatch(s.fields[:])
}

// Run advances the given number of steps.
func (s *Sim) Run(steps int) error {
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

func cross(a [3]float64, b [3]complex128) [3]complex128 {
	return [3]complex128{
		complex(a[1], 0)*b[2] - complex(a[2], 0)*b[1],
		complex(a[2], 0)*b[0] - complex(a[0], 0)*b[2],
		complex(a[0], 0)*b[1] - complex(a[1], 0)*b[0],
	}
}
