// Package lammps is a molecular-dynamics proxy of the LAMMPS Rhodopsin
// benchmark used in Fig. 12 of the paper: a fixed-size atom system whose
// long-range electrostatics (the KSPACE package) are solved with PPPM —
// charge deposition on a 3-D grid, one forward FFT, a reciprocal-space
// Green's-function multiply, three inverse FFTs for the field components,
// and force interpolation.
//
// The short-range kernels (pair, bond, neighbor) and the halo exchange are
// charged from calibrated per-step GPU costs; the KSPACE FFTs run through a
// real internal/core plan, so switching the plan options (fftMPI-like
// pencil+P2P vs tuned heFFTe slab+Alltoallv) reproduces the ≈40% KSPACE
// reduction of Fig. 12.
package lammps

import (
	"fmt"
	"math/rand"

	"repro/internal/apps/mesh"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Kernel cost calibration (seconds). Anchored so that, at the Fig. 12 scale
// (32K atoms, 512³ grid, 192 ranks), the non-KSPACE fractions resemble the
// published Rhodopsin breakdown: pair dominates the short-range side, neigh
// rebuilds cost a few pair-steps every NeighEvery steps, bond is small.
const (
	pairBase  = 350e-6 // fixed GPU launch+reduction cost per step
	pairAtom  = 60e-9  // per local atom (LJ + real-space Coulomb, ~60 neighbors)
	bondBase  = 60e-6
	bondAtom  = 8e-9
	neighBase = 500e-6 // neighbor-list rebuild
	neighAtom = 120e-9
	otherBase = 80e-6 // integrator, thermo, fixes
	// Halo exchange payload per step: ghost-atom data, a few hundred bytes
	// per boundary atom. Modelled as one exchange with up to 6 face
	// neighbors in the rank grid.
	haloBytesPerAtom = 256
)

// NeighEvery is how often the neighbor list is rebuilt (LAMMPS default-ish).
const NeighEvery = 10

// Config describes the benchmark instance.
type Config struct {
	Atoms int    // total atom count (Rhodopsin: 32000)
	Grid  [3]int // PPPM FFT grid (512³ in Fig. 12)
	// FFT holds the distributed-FFT options: the experiment toggles between
	// the fftMPI-like baseline and tuned heFFTe settings.
	FFT core.Options
	// Phantom runs the FFTs without real payloads (performance-only).
	Phantom bool
}

// Sim is one rank's share of the simulation.
type Sim struct {
	comm *mpisim.Comm
	dev  *gpu.Device
	cfg  Config
	plan *core.Plan
	dom  mesh.Domain
	box  tensor.Box3 // local grid brick
	// Local atoms (real mode). Atoms are generated inside the rank's brick
	// region, standing in for LAMMPS' spatial decomposition.
	parts []mesh.Particle
	// step counter for the neighbor-rebuild cadence
	step int
}

// New collectively creates the simulation. Every rank passes the same
// Config.
func New(c *mpisim.Comm, cfg Config) (*Sim, error) {
	if cfg.Atoms <= 0 {
		return nil, fmt.Errorf("lammps: need a positive atom count, got %d", cfg.Atoms)
	}
	for _, g := range cfg.Grid {
		if g < 2 {
			return nil, fmt.Errorf("lammps: grid %v too small", cfg.Grid)
		}
	}
	plan, err := core.NewPlan(c, core.Config{Global: cfg.Grid, Opts: cfg.FFT})
	if err != nil {
		return nil, fmt.Errorf("lammps: %w", err)
	}
	s := &Sim{
		comm: c,
		dev:  gpu.New(c),
		cfg:  cfg,
		plan: plan,
		dom:  mesh.Domain{L: [3]float64{1, 1, 1}, Global: cfg.Grid},
		box:  plan.InBox(),
	}
	if !cfg.Phantom {
		s.generateAtoms()
	}
	return s, nil
}

// localAtoms returns this rank's share of the atom count.
func (s *Sim) localAtoms() int {
	n, size, r := s.cfg.Atoms, s.comm.Size(), s.comm.Rank()
	base := n / size
	if r < n%size {
		base++
	}
	return base
}

// generateAtoms scatters this rank's atoms uniformly inside its grid brick,
// with alternating unit charges (net neutral overall for even counts).
func (s *Sim) generateAtoms() {
	rng := rand.New(rand.NewSource(int64(1000 * s.comm.Rank())))
	nl := s.localAtoms()
	s.parts = make([]mesh.Particle, nl)
	for i := range s.parts {
		var pos [3]float64
		for k := 0; k < 3; k++ {
			h := s.dom.L[k] / float64(s.dom.Global[k])
			lo := float64(s.box.Lo[k]) * h
			hi := float64(s.box.Hi[k]) * h
			// Keep clear of the box faces so NGP stays local.
			pos[k] = lo + (0.25+0.5*rng.Float64())*(hi-lo)
		}
		q := 1.0
		if i%2 == 1 {
			q = -1.0
		}
		s.parts[i] = mesh.Particle{Pos: pos, Q: q}
	}
}

// chargeKernel advances the clock by a short-range kernel's cost and records
// it under the LAMMPS breakdown name.
func (s *Sim) chargeKernel(name string, dt float64) {
	start := s.comm.Clock()
	s.comm.Advance(dt)
	s.comm.Tracer().Record(trace.Event{
		Rank: s.comm.WorldRank(s.comm.Rank()), Name: name,
		Start: start, End: start + dt,
	})
}

// halo performs the per-step ghost exchange with the face neighbors in rank
// space (real messages through the simulator; payload scales with the local
// surface).
func (s *Sim) halo() {
	start := s.comm.Clock()
	size := s.comm.Size()
	me := s.comm.Rank()
	bytes := haloBytesPerAtom * s.localAtoms() / 4
	if bytes < 512 {
		bytes = 512
	}
	elems := (bytes + 15) / 16
	var reqs []*mpisim.Request
	for _, d := range []int{1, -1} {
		peer := (me + d + size) % size
		if peer == me {
			continue
		}
		reqs = append(reqs, s.comm.Irecv(peer, 7700))
		reqs = append(reqs, s.comm.Isend(peer, 7700, mpisim.Buf{N: elems, Loc: machine.Device}))
	}
	s.comm.Waitall(reqs)
	s.comm.Tracer().Record(trace.Event{
		Rank: s.comm.WorldRank(me), Name: "comm",
		Start: start, End: s.comm.Clock(),
	})
}

// Step advances the simulation one MD step and returns the long-range
// (KSPACE) energy when running with real data (0 in phantom mode).
func (s *Sim) Step() (float64, error) {
	s.step++
	nl := s.localAtoms()
	s.chargeKernel("pair", pairBase+pairAtom*float64(nl))
	s.chargeKernel("bond", bondBase+bondAtom*float64(nl))
	if s.step%NeighEvery == 1 {
		s.chargeKernel("neigh", neighBase+neighAtom*float64(nl))
	}
	s.halo()
	energy, err := s.kspace()
	if err != nil {
		return 0, err
	}
	s.chargeKernel("other", otherBase)
	return energy, nil
}

// kspace runs the PPPM long-range solve: deposit → forward FFT → Green's
// multiply → 3 inverse FFTs (batched) → gather forces. All FFT, pack and MPI
// time lands in the trace under the usual kernel names; the surrounding
// deposit/convolution GPU work is charged explicitly.
func (s *Sim) kspace() (float64, error) {
	gridBytes := 16 * s.box.Volume()

	// Charge assignment.
	var rho *core.Field
	if s.cfg.Phantom {
		rho = core.NewPhantom(s.box)
	} else {
		rho = core.NewField(s.box)
		if err := mesh.Deposit(rho.Data, s.box, s.dom, s.parts); err != nil {
			return 0, err
		}
	}
	s.chargeKernel("kspace_map", s.dev.Model().PointwiseCost(16*s.localAtoms()))

	// ρ → ρ̂.
	if err := s.plan.Forward(rho); err != nil {
		return 0, err
	}

	// φ̂ = G·ρ̂ and Ê = −ik φ̂ per component.
	specBox := rho.Box
	if !s.cfg.Phantom {
		mesh.PoissonMultiply(rho.Data, specBox, s.dom)
	}
	s.chargeKernel("kspace_conv", s.dev.Model().PointwiseCost(gridBytes))

	fields := make([]*core.Field, 3)
	for ax := 0; ax < 3; ax++ {
		if s.cfg.Phantom {
			fields[ax] = core.NewPhantom(specBox)
		} else {
			fields[ax] = &core.Field{Box: specBox, Data: mesh.GradientMultiply(rho.Data, specBox, s.dom, ax)}
		}
	}
	s.chargeKernel("kspace_conv", s.dev.Model().PointwiseCost(3*gridBytes))

	// Ê → E: three transforms as one batch (the heFFTe batching feature).
	if err := s.plan.InverseBatch(fields); err != nil {
		return 0, err
	}

	// Force interpolation + energy.
	s.chargeKernel("kspace_map", s.dev.Model().PointwiseCost(16*s.localAtoms()))
	if s.cfg.Phantom {
		return 0, nil
	}
	e := make([]float64, len(s.parts))
	energy := 0.0
	for ax := 0; ax < 3; ax++ {
		if err := mesh.Gather(fields[ax].Data, fields[ax].Box, s.dom, s.parts, e); err != nil {
			return 0, err
		}
		for i := range s.parts {
			// Store force components in velocity slots scaled later by the
			// integrator; the proxy only accumulates them.
			s.parts[i].Vel[ax] += s.parts[i].Q * e[i]
		}
	}
	// Long-range energy ½·Σ q·φ at particle sites requires φ in real space;
	// reuse rho's spectral array: one more inverse on the potential.
	if !s.cfg.Phantom {
		phi := &core.Field{Box: specBox, Data: append([]complex128(nil), rho.Data...)}
		if err := s.plan.Inverse(phi); err != nil {
			return 0, err
		}
		if err := mesh.Gather(phi.Data, phi.Box, s.dom, s.parts, e); err != nil {
			return 0, err
		}
		for i, p := range s.parts {
			energy += 0.5 * p.Q * e[i]
		}
		energy = s.comm.Allreduce(energy, mpisim.OpSum)
	}
	return energy, nil
}

// Run advances the simulation the given number of steps and returns the last
// step's long-range energy.
func (s *Sim) Run(steps int) (float64, error) {
	var energy float64
	for i := 0; i < steps; i++ {
		e, err := s.Step()
		if err != nil {
			return 0, err
		}
		energy = e
	}
	return energy, nil
}
