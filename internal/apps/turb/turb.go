// Package turb is a pseudo-spectral incompressible Navier–Stokes proxy of
// the extreme-scale turbulence simulations ([28] in the paper) that motivate
// batched multi-GPU FFTs: each time step inverse-transforms the three
// spectral velocity components (one batched call), forms the advective term
// in real space, forward-transforms it (another batched call), projects onto
// the divergence-free subspace and integrates with an exact viscous factor.
package turb

import (
	"fmt"
	"math"

	"repro/internal/apps/mesh"
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Config describes a turbulence run on the periodic box [0,2π)³.
type Config struct {
	Grid [3]int
	Nu   float64 // kinematic viscosity
	Dt   float64
	FFT  core.Options
}

// Sim holds one rank's spectral state.
type Sim struct {
	comm *mpisim.Comm
	cfg  Config
	plan *core.Plan
	dom  mesh.Domain
	// uhat are the spectral velocity components on the plan's input bricks.
	uhat [3]*core.Field
	box  tensor.Box3
	step int
}

// New collectively creates a simulation initialized with the Taylor–Green
// vortex, the classic decaying-turbulence benchmark.
func New(c *mpisim.Comm, cfg Config) (*Sim, error) {
	for _, g := range cfg.Grid {
		if g < 4 {
			return nil, fmt.Errorf("turb: grid %v too small", cfg.Grid)
		}
	}
	if cfg.Dt <= 0 {
		cfg.Dt = 1e-2
	}
	if cfg.Nu < 0 {
		return nil, fmt.Errorf("turb: negative viscosity %g", cfg.Nu)
	}
	plan, err := core.NewPlan(c, core.Config{Global: cfg.Grid, Opts: cfg.FFT})
	if err != nil {
		return nil, fmt.Errorf("turb: %w", err)
	}
	s := &Sim{
		comm: c,
		cfg:  cfg,
		plan: plan,
		dom:  mesh.Domain{L: [3]float64{2 * math.Pi, 2 * math.Pi, 2 * math.Pi}, Global: cfg.Grid},
		box:  plan.InBox(),
	}
	// Taylor–Green in real space, then transform to spectral.
	fields := make([]*core.Field, 3)
	for ax := 0; ax < 3; ax++ {
		fields[ax] = core.NewField(s.box)
	}
	h := [3]float64{}
	for k := 0; k < 3; k++ {
		h[k] = s.dom.L[k] / float64(cfg.Grid[k])
	}
	idx := 0
	for i0 := s.box.Lo[0]; i0 < s.box.Hi[0]; i0++ {
		x := float64(i0) * h[0]
		for i1 := s.box.Lo[1]; i1 < s.box.Hi[1]; i1++ {
			y := float64(i1) * h[1]
			for i2 := s.box.Lo[2]; i2 < s.box.Hi[2]; i2++ {
				z := float64(i2) * h[2]
				fields[0].Data[idx] = complex(math.Sin(x)*math.Cos(y)*math.Cos(z), 0)
				fields[1].Data[idx] = complex(-math.Cos(x)*math.Sin(y)*math.Cos(z), 0)
				// w = 0
				idx++
			}
		}
	}
	if err := plan.ForwardBatch(fields); err != nil {
		return nil, err
	}
	// Forward moves fields to the output bricks; for the default symmetric
	// brick layout InBox == OutBox, so the state stays plan-compatible.
	for ax := 0; ax < 3; ax++ {
		s.uhat[ax] = fields[ax]
	}
	return s, nil
}

// wavevector returns k at a global spectral index.
func (s *Sim) wavevector(i0, i1, i2 int) [3]float64 {
	return [3]float64{
		s.dom.Wavenumber(0, i0),
		s.dom.Wavenumber(1, i1),
		s.dom.Wavenumber(2, i2),
	}
}

// project removes the compressive part of a spectral vector field in place:
// v ← v − k(k·v)/k².
func (s *Sim) project(v [3]*core.Field) {
	b := v[0].Box
	idx := 0
	for i0 := b.Lo[0]; i0 < b.Hi[0]; i0++ {
		for i1 := b.Lo[1]; i1 < b.Hi[1]; i1++ {
			for i2 := b.Lo[2]; i2 < b.Hi[2]; i2++ {
				k := s.wavevector(i0, i1, i2)
				ksq := k[0]*k[0] + k[1]*k[1] + k[2]*k[2]
				if ksq > 0 {
					dot := complex(k[0], 0)*v[0].Data[idx] +
						complex(k[1], 0)*v[1].Data[idx] +
						complex(k[2], 0)*v[2].Data[idx]
					for ax := 0; ax < 3; ax++ {
						v[ax].Data[idx] -= complex(k[ax]/ksq, 0) * dot
					}
				}
				idx++
			}
		}
	}
}

// Step advances one explicit-Euler step with an exact integrating factor for
// the viscous term: û ← e^{−ν k² dt}(û + dt·P[−(u·∇)u]^).
func (s *Sim) Step() error {
	s.step++

	// u = IFFT(û) — one batched inverse of the three components.
	u := make([]*core.Field, 3)
	for ax := 0; ax < 3; ax++ {
		u[ax] = &core.Field{Box: s.uhat[ax].Box, Data: append([]complex128(nil), s.uhat[ax].Data...)}
	}
	if err := s.plan.InverseBatch(u); err != nil {
		return err
	}

	// ∂u/∂x_d via spectral derivative, one axis at a time; accumulate
	// N_ax = Σ_d u_d ∂u_ax/∂x_d in real space.
	adv := make([]*core.Field, 3)
	for ax := 0; ax < 3; ax++ {
		adv[ax] = core.NewField(u[0].Box)
	}
	for d := 0; d < 3; d++ {
		grads := make([]*core.Field, 3)
		for ax := 0; ax < 3; ax++ {
			// −ik_d û_ax is the spectral form of −∂u_ax/∂x_d; negate later.
			grads[ax] = &core.Field{Box: s.uhat[ax].Box,
				Data: mesh.GradientMultiply(s.uhat[ax].Data, s.uhat[ax].Box, s.dom, d)}
		}
		if err := s.plan.InverseBatch(grads); err != nil {
			return err
		}
		for ax := 0; ax < 3; ax++ {
			for i := range adv[ax].Data {
				// GradientMultiply produced −∂u/∂x_d, so subtract to add
				// u_d·∂u_ax/∂x_d.
				adv[ax].Data[i] -= u[d].Data[i] * grads[ax].Data[i]
			}
		}
	}

	// Back to spectral space — one batched forward.
	if err := s.plan.ForwardBatch(adv); err != nil {
		return err
	}

	// Nonlinear term enters with a minus sign: û' = û − dt·(u·∇u)^, then
	// project and damp.
	for i := range adv {
		for j := range adv[i].Data {
			adv[i].Data[j] = -adv[i].Data[j]
		}
	}
	b := s.uhat[0].Box
	dt := complex(s.cfg.Dt, 0)
	for ax := 0; ax < 3; ax++ {
		for i := range s.uhat[ax].Data {
			s.uhat[ax].Data[i] += dt * adv[ax].Data[i]
		}
	}
	s.project([3]*core.Field{s.uhat[0], s.uhat[1], s.uhat[2]})
	idx := 0
	for i0 := b.Lo[0]; i0 < b.Hi[0]; i0++ {
		for i1 := b.Lo[1]; i1 < b.Hi[1]; i1++ {
			for i2 := b.Lo[2]; i2 < b.Hi[2]; i2++ {
				k := s.wavevector(i0, i1, i2)
				ksq := k[0]*k[0] + k[1]*k[1] + k[2]*k[2]
				damp := complex(math.Exp(-s.cfg.Nu*ksq*s.cfg.Dt), 0)
				for ax := 0; ax < 3; ax++ {
					s.uhat[ax].Data[idx] *= damp
				}
				idx++
			}
		}
	}
	return nil
}

// Energy returns the global kinetic energy ½⟨|u|²⟩ from the spectral state
// (Parseval).
func (s *Sim) Energy() float64 {
	local := 0.0
	for ax := 0; ax < 3; ax++ {
		for _, v := range s.uhat[ax].Data {
			local += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	n := float64(s.cfg.Grid[0] * s.cfg.Grid[1] * s.cfg.Grid[2])
	return 0.5 * s.comm.Allreduce(local, mpisim.OpSum) / (n * n)
}

// MaxDivergence returns the global maximum of |k·û| — zero for an exactly
// divergence-free spectral state.
func (s *Sim) MaxDivergence() float64 {
	b := s.uhat[0].Box
	local := 0.0
	idx := 0
	for i0 := b.Lo[0]; i0 < b.Hi[0]; i0++ {
		for i1 := b.Lo[1]; i1 < b.Hi[1]; i1++ {
			for i2 := b.Lo[2]; i2 < b.Hi[2]; i2++ {
				k := s.wavevector(i0, i1, i2)
				div := complex(k[0], 0)*s.uhat[0].Data[idx] +
					complex(k[1], 0)*s.uhat[1].Data[idx] +
					complex(k[2], 0)*s.uhat[2].Data[idx]
				if a := absC(div); a > local {
					local = a
				}
				idx++
			}
		}
	}
	return s.comm.Allreduce(local, mpisim.OpMax)
}

func absC(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}
