// Package hacc is an N-body particle-mesh proxy of the HACC cosmology code
// the paper lists among the FFT-bound exascale applications: particles
// deposit mass on a 3-D grid, a spectral Poisson solve (forward FFT,
// −4πG/k² multiply, three inverse FFTs) yields the gravitational field, and
// a leapfrog integrator advances the particles, migrating them between ranks
// as they cross brick boundaries.
package hacc

import (
	"fmt"
	"math/rand"

	"repro/internal/apps/mesh"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Config describes an N-body run.
type Config struct {
	Particles int    // total particle count
	Grid      [3]int // PM grid
	G         float64
	Dt        float64
	FFT       core.Options
	Phantom   bool // performance-only runs
	Seed      int64
}

// Sim is one rank's share of the N-body system.
type Sim struct {
	comm  *mpisim.Comm
	dev   *gpu.Device
	cfg   Config
	plan  *core.Plan
	dom   mesh.Domain
	box   tensor.Box3
	boxes []tensor.Box3 // all ranks' bricks, for migration
	parts []mesh.Particle
}

// New collectively creates the simulation.
func New(c *mpisim.Comm, cfg Config) (*Sim, error) {
	if cfg.Particles <= 0 {
		return nil, fmt.Errorf("hacc: need positive particle count")
	}
	if cfg.G == 0 {
		cfg.G = 1
	}
	if cfg.Dt == 0 {
		cfg.Dt = 1e-3
	}
	plan, err := core.NewPlan(c, core.Config{Global: cfg.Grid, Opts: cfg.FFT})
	if err != nil {
		return nil, fmt.Errorf("hacc: %w", err)
	}
	s := &Sim{
		comm:  c,
		dev:   gpu.New(c),
		cfg:   cfg,
		plan:  plan,
		dom:   mesh.Domain{L: [3]float64{1, 1, 1}, Global: cfg.Grid},
		box:   plan.InBox(),
		boxes: core.DefaultBricks(c.Size(), cfg.Grid),
	}
	if !cfg.Phantom {
		s.generate()
	}
	return s, nil
}

func (s *Sim) generate() {
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(31*s.comm.Rank())))
	n := s.cfg.Particles / s.comm.Size()
	if s.comm.Rank() < s.cfg.Particles%s.comm.Size() {
		n++
	}
	s.parts = make([]mesh.Particle, n)
	for i := range s.parts {
		var pos [3]float64
		for k := 0; k < 3; k++ {
			h := s.dom.L[k] / float64(s.dom.Global[k])
			lo, hi := float64(s.box.Lo[k])*h, float64(s.box.Hi[k])*h
			pos[k] = lo + (0.25+0.5*rng.Float64())*(hi-lo)
		}
		s.parts[i] = mesh.Particle{Pos: pos, Q: 1} // unit masses
	}
}

// owner returns the rank whose brick contains the particle's cell.
func (s *Sim) owner(p mesh.Particle) int {
	c := s.dom.Cell(p.Pos)
	for r, b := range s.boxes {
		if b.Contains(c[0], c[1], c[2]) {
			return r
		}
	}
	return -1
}

// encode packs a particle into 4 complex numbers for the wire.
func encode(p mesh.Particle) [4]complex128 {
	return [4]complex128{
		complex(p.Pos[0], p.Vel[0]),
		complex(p.Pos[1], p.Vel[1]),
		complex(p.Pos[2], p.Vel[2]),
		complex(p.Q, 0),
	}
}

func decode(c []complex128) mesh.Particle {
	return mesh.Particle{
		Pos: [3]float64{real(c[0]), real(c[1]), real(c[2])},
		Vel: [3]float64{imag(c[0]), imag(c[1]), imag(c[2])},
		Q:   real(c[3]),
	}
}

// migrate exchanges particles that crossed brick boundaries (MPI_Alltoallv,
// as the real code does after each drift).
func (s *Sim) migrate() error {
	size := s.comm.Size()
	outgoing := make([][]mesh.Particle, size)
	keep := s.parts[:0]
	for _, p := range s.parts {
		r := s.owner(p)
		if r < 0 {
			return fmt.Errorf("hacc: particle at %v owns no brick", p.Pos)
		}
		if r == s.comm.Rank() {
			keep = append(keep, p)
		} else {
			outgoing[r] = append(outgoing[r], p)
		}
	}
	var send []mpisim.Block
	for r, ps := range outgoing {
		if len(ps) == 0 {
			continue
		}
		data := make([]complex128, 0, 4*len(ps))
		for _, p := range ps {
			e := encode(p)
			data = append(data, e[:]...)
		}
		send = append(send, mpisim.Block{Peer: r, Buf: mpisim.Buf{Data: data, Loc: machine.Device}})
	}
	recv := s.comm.AlltoallvSparse(send, nil, machine.Device, mpisim.AlgoLinear)
	s.parts = keep
	for _, b := range recv {
		for i := 0; i+4 <= len(b.Buf.Data); i += 4 {
			s.parts = append(s.parts, decode(b.Buf.Data[i:i+4]))
		}
	}
	return nil
}

// accelerations runs the PM force solve and returns per-particle
// accelerations.
func (s *Sim) accelerations() ([][3]float64, error) {
	if s.cfg.Phantom {
		rho := core.NewPhantom(s.box)
		if err := s.plan.Forward(rho); err != nil {
			return nil, err
		}
		fields := []*core.Field{
			core.NewPhantom(rho.Box), core.NewPhantom(rho.Box), core.NewPhantom(rho.Box),
		}
		return nil, s.plan.InverseBatch(fields)
	}

	rho := core.NewField(s.box)
	if err := mesh.Deposit(rho.Data, s.box, s.dom, s.parts); err != nil {
		return nil, err
	}
	s.dev.Pointwise(16 * len(s.parts))
	if err := s.plan.Forward(rho); err != nil {
		return nil, err
	}
	// φ̂ = −4πG·ρ̂/k²  (∇²φ = 4πGρ).
	mesh.PoissonMultiply(rho.Data, rho.Box, s.dom)
	scale := complex(-4*3.141592653589793*s.cfg.G, 0)
	for i := range rho.Data {
		rho.Data[i] *= scale
	}
	s.dev.Pointwise(16 * s.box.Volume())

	fields := make([]*core.Field, 3)
	for ax := 0; ax < 3; ax++ {
		// a = −∇φ; GradientMultiply returns −ik·φ̂ which is the spectral
		// form of −∂φ already.
		fields[ax] = &core.Field{Box: rho.Box, Data: mesh.GradientMultiply(rho.Data, rho.Box, s.dom, ax)}
	}
	if err := s.plan.InverseBatch(fields); err != nil {
		return nil, err
	}
	acc := make([][3]float64, len(s.parts))
	buf := make([]float64, len(s.parts))
	for ax := 0; ax < 3; ax++ {
		if err := mesh.Gather(fields[ax].Data, fields[ax].Box, s.dom, s.parts, buf); err != nil {
			return nil, err
		}
		for i := range acc {
			acc[i][ax] = buf[i]
		}
	}
	return acc, nil
}

// Step advances one leapfrog step (kick-drift with migration).
func (s *Sim) Step() error {
	acc, err := s.accelerations()
	if err != nil {
		return err
	}
	if s.cfg.Phantom {
		return nil
	}
	for i := range s.parts {
		for k := 0; k < 3; k++ {
			s.parts[i].Vel[k] += acc[i][k] * s.cfg.Dt
			s.parts[i].Pos[k] += s.parts[i].Vel[k] * s.cfg.Dt
		}
		s.parts[i].Pos = s.dom.Wrap(s.parts[i].Pos)
	}
	return s.migrate()
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

// Momentum returns the global total momentum (per axis).
func (s *Sim) Momentum() [3]float64 {
	var m [3]float64
	for k := 0; k < 3; k++ {
		local := 0.0
		for _, p := range s.parts {
			local += p.Q * p.Vel[k]
		}
		m[k] = s.comm.Allreduce(local, mpisim.OpSum)
	}
	return m
}

// Count returns the global particle count (for conservation checks after
// migration).
func (s *Sim) Count() int {
	return int(s.comm.Allreduce(float64(len(s.parts)), mpisim.OpSum))
}

// Particles returns the local particles.
func (s *Sim) Particles() []mesh.Particle { return s.parts }
