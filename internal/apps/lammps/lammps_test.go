package lammps

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		if _, err := New(c, Config{Atoms: 0, Grid: [3]int{8, 8, 8}}); err == nil {
			t.Error("expected error for zero atoms")
		}
		if _, err := New(c, Config{Atoms: 10, Grid: [3]int{1, 8, 8}}); err == nil {
			t.Error("expected error for degenerate grid")
		}
	})
}

func TestAtomPartitionCoversAll(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	counts := make([]int, 6)
	w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Atoms: 100, Grid: [3]int{8, 8, 8}, Phantom: true})
		if err != nil {
			panic(err)
		}
		counts[c.Rank()] = s.localAtoms()
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 100 {
		t.Errorf("atoms partition to %d, want 100", total)
	}
}

func TestStepProducesFiniteEnergy(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	energies := make([]float64, 6)
	w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Atoms: 120, Grid: [3]int{12, 12, 12},
			FFT: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		e, err := s.Step()
		if err != nil {
			panic(err)
		}
		energies[c.Rank()] = e
	})
	for r, e := range energies {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("rank %d energy %g not finite", r, e)
		}
		if e != energies[0] {
			t.Fatalf("energy not globally reduced: rank %d %g vs %g", r, e, energies[0])
		}
	}
}

func TestEnergyDeterministic(t *testing.T) {
	run := func() float64 {
		w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
		var e float64
		w.Run(func(c *mpisim.Comm) {
			s, err := New(c, Config{Atoms: 60, Grid: [3]int{8, 8, 8}})
			if err != nil {
				panic(err)
			}
			v, err := s.Run(2)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				e = v
			}
		})
		return e
	}
	if a, b := run(), run(); a != b {
		t.Errorf("energy not deterministic: %g vs %g", a, b)
	}
}

func TestBreakdownContainsAllKernels(t *testing.T) {
	tr := trace.New()
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true, Tracer: tr})
	res := w.Run(func(c *mpisim.Comm) {
		s, err := New(c, Config{Atoms: 600, Grid: [3]int{16, 16, 16}, Phantom: true})
		if err != nil {
			panic(err)
		}
		if _, err := s.Run(3); err != nil {
			panic(err)
		}
	})
	totals := tr.TotalByName(slices.Index(res.Clocks, res.MaxClock))
	for _, name := range []string{"pair", "bond", "neigh", "comm", "other", "kspace_map", "kspace_conv"} {
		if totals[name] <= 0 {
			t.Errorf("breakdown missing kernel %q", name)
		}
	}
	// FFT communication must appear too.
	if totals["MPI_Alltoallv"] <= 0 {
		t.Error("KSPACE FFT communication missing from trace")
	}
}

// TestTunedBeatsBaseline is the Fig. 12 shape: switching the KSPACE FFT from
// the fftMPI-like baseline (pencils + blocking P2P, host-staged MPI) to the
// tuned heFFTe settings must cut the KSPACE time substantially.
func TestTunedBeatsBaseline(t *testing.T) {
	kspaceTime := func(opts core.Options, aware bool) float64 {
		tr := trace.New()
		w := mpisim.NewWorld(machine.Summit(), 24, mpisim.Options{GPUAware: aware, Tracer: tr})
		res := w.Run(func(c *mpisim.Comm) {
			s, err := New(c, Config{Atoms: 32000, Grid: [3]int{128, 128, 128}, Phantom: true, FFT: opts})
			if err != nil {
				panic(err)
			}
			if _, err := s.Run(2); err != nil {
				panic(err)
			}
		})
		totals := tr.TotalByName(slices.Index(res.Clocks, res.MaxClock))
		k := 0.0
		for name, v := range totals {
			switch name {
			case "kspace_map", "kspace_conv", "pack", "unpack", "batched_fft",
				"MPI_Alltoall", "MPI_Alltoallv", "MPI_Alltoallw",
				"MPI_Send", "MPI_Isend", "MPI_Irecv", "MPI_Waitany",
				"cufft_1d", "cufft_1d_strided", "cufft_2d":
				k += v
			}
		}
		return k
	}
	baseline := kspaceTime(core.Options{Decomp: core.DecompPencils, Backend: core.BackendP2PBlocking}, false)
	tuned := kspaceTime(core.Options{Decomp: core.DecompSlabs, Backend: core.BackendAlltoallv}, true)
	if tuned >= baseline {
		t.Errorf("tuned KSPACE %g should beat fftMPI-like baseline %g", tuned, baseline)
	}
	reduction := 1 - tuned/baseline
	if reduction < 0.15 {
		t.Errorf("KSPACE reduction %.0f%% too small to reproduce the ≈40%% of Fig. 12", reduction*100)
	}
}
