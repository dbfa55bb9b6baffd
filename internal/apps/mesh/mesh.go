// Package mesh provides the particle-mesh machinery shared by the
// application proxies (LAMMPS PPPM, pseudo-spectral turbulence): nearest-grid-point deposition and gathering, spectral
// wavenumbers, and the k-space Green's-function multiply of a periodic
// Poisson solve.
package mesh

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Particle is a point mass/charge with velocity, used by the MD and N-body
// proxies.
type Particle struct {
	Pos [3]float64
	Vel [3]float64
	Q   float64 // charge (PPPM) or mass (gravity)
}

// Domain maps a periodic simulation box [0,L)³ onto a global grid.
type Domain struct {
	L      [3]float64 // box lengths
	Global [3]int     // grid extents
}

// Cell returns the nearest-grid-point cell of a position (periodic wrap).
func (d Domain) Cell(pos [3]float64) [3]int {
	var c [3]int
	for k := 0; k < 3; k++ {
		h := d.L[k] / float64(d.Global[k])
		i := int(math.Floor(pos[k]/h + 0.5))
		i %= d.Global[k]
		if i < 0 {
			i += d.Global[k]
		}
		c[k] = i
	}
	return c
}

// CellVolume returns the volume of one grid cell.
func (d Domain) CellVolume() float64 {
	v := 1.0
	for k := 0; k < 3; k++ {
		v *= d.L[k] / float64(d.Global[k])
	}
	return v
}

// Deposit adds each particle's charge to its nearest grid point within the
// local box (particles must live inside the box — the proxies generate
// particles per-rank, standing in for LAMMPS' domain decomposition + halo
// exchange). grid is the local array laid out for box.
func Deposit(grid []complex128, box tensor.Box3, d Domain, parts []Particle) error {
	inv := 1 / d.CellVolume()
	for _, p := range parts {
		c := d.Cell(p.Pos)
		if !box.Contains(c[0], c[1], c[2]) {
			return fmt.Errorf("mesh: particle at %v (cell %v) outside local box %v", p.Pos, c, box)
		}
		grid[box.Index(c[0], c[1], c[2])] += complex(p.Q*inv, 0)
	}
	return nil
}

// Gather reads the field value at each particle's nearest grid point.
func Gather(grid []complex128, box tensor.Box3, d Domain, parts []Particle, out []float64) error {
	if len(out) != len(parts) {
		return fmt.Errorf("mesh: out length %d != particles %d", len(out), len(parts))
	}
	for i, p := range parts {
		c := d.Cell(p.Pos)
		if !box.Contains(c[0], c[1], c[2]) {
			return fmt.Errorf("mesh: particle at %v outside local box %v", p.Pos, box)
		}
		out[i] = real(grid[box.Index(c[0], c[1], c[2])])
	}
	return nil
}

// Freq returns the signed integer frequency of index i on an axis of extent
// n: 0, 1, …, n/2, −(n/2−1), …, −1 (standard FFT ordering).
func Freq(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// Wavenumber returns the physical wavenumber 2π·freq/L of grid index i.
func (d Domain) Wavenumber(axis, i int) float64 {
	return 2 * math.Pi * float64(Freq(i, d.Global[axis])) / d.L[axis]
}

// PoissonMultiply turns a spectral density ρ̂ (stored over box in the global
// spectral layout) into a spectral potential φ̂ by multiplying with the
// periodic Green's function 1/k² (zero mode removed): ∇²φ = −ρ.
func PoissonMultiply(spec []complex128, box tensor.Box3, d Domain) {
	idx := 0
	for i0 := box.Lo[0]; i0 < box.Hi[0]; i0++ {
		k0 := d.Wavenumber(0, i0)
		for i1 := box.Lo[1]; i1 < box.Hi[1]; i1++ {
			k1 := d.Wavenumber(1, i1)
			for i2 := box.Lo[2]; i2 < box.Hi[2]; i2++ {
				k2 := d.Wavenumber(2, i2)
				ksq := k0*k0 + k1*k1 + k2*k2
				if ksq == 0 {
					spec[idx] = 0 // remove the mean (neutralizing background)
				} else {
					spec[idx] *= complex(1/ksq, 0)
				}
				idx++
			}
		}
	}
}

// GradientMultiply returns the spectral derivative along axis: −i·k_axis·φ̂
// (the electric field Ê = −∇φ in k-space). A new slice is returned so the
// potential can be reused for the other components.
func GradientMultiply(spec []complex128, box tensor.Box3, d Domain, axis int) []complex128 {
	out := make([]complex128, len(spec))
	idx := 0
	for i0 := box.Lo[0]; i0 < box.Hi[0]; i0++ {
		for i1 := box.Lo[1]; i1 < box.Hi[1]; i1++ {
			for i2 := box.Lo[2]; i2 < box.Hi[2]; i2++ {
				k := d.Wavenumber(axis, [3]int{i0, i1, i2}[axis])
				// Nyquist mode of an even grid has no well-defined sign;
				// zero it for a real-valued derivative.
				if isNyquist(axis, [3]int{i0, i1, i2}[axis], d.Global) {
					out[idx] = 0
				} else {
					out[idx] = spec[idx] * complex(0, -k)
				}
				idx++
			}
		}
	}
	return out
}

func isNyquist(axis, i int, global [3]int) bool {
	n := global[axis]
	return n%2 == 0 && i == n/2
}
