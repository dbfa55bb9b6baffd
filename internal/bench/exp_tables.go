package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
)

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "Available MPI routines in FFT libraries (capability matrix of this library's backends)",
		Run:   runTable1,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Software stack used for the experiments (simulated equivalents)",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "table3",
		Title: "Grid sequence for the scalability experiments",
		Run:   runTable3,
	})
}

func runTable1() (Result, error) {
	libs := Section{Header: []string{"library", "AlltoAll", "Point-to-Point"}}
	for _, r := range [][3]string{
		{"AccFFT [15]", "MPI_Alltoall", "MPI_Isend/MPI_Irecv, MPI_Sendrecv"},
		{"FFTE [16]", "MPI_Alltoall, MPI_Alltoallv", "-"},
		{"fftMPI [17]", "MPI_Alltoallv", "MPI_Send/MPI_Irecv"},
		{"heFFTe [18]", "MPI_Alltoall, MPI_Alltoallv", "MPI_Send/MPI_Isend, MPI_Irecv"},
		{"Dalcin et al. [11]", "MPI_Alltoallw", "-"},
		{"P3DFFT [19]", "MPI_Alltoallv", "MPI_Send/MPI_Irecv"},
		{"this library", "Alltoall, Alltoallv, Alltoallw", "Send/Isend, Irecv (+Waitany)"},
	} {
		libs.Rows = append(libs.Rows, labels(r[:]...))
	}
	// The backend rows are core's backend table. A backend without pack
	// kernels hands the MPI derived datatypes, which move GPU-aware only where
	// the stack's MPI_Alltoallw does.
	backends := Section{
		Lead: []string{"", "backend capability check of this library:"},
		Header: []string{"backend", "MPI routines", "collective", "pads blocks", "pack kernels", "unpack",
			"schedules+chunks", "wire compression", "per-entry async", "GPU-aware on SpectrumMPI"},
	}
	spectrum := machine.Summit()
	for _, b := range []core.Backend{
		core.BackendAlltoall, core.BackendAlltoallv, core.BackendAlltoallw, core.BackendP2P, core.BackendP2PBlocking,
	} {
		c := b.Capabilities()
		unpack := "none"
		switch {
		case c.BulkUnpack:
			unpack = "per call"
		case c.Packs:
			unpack = "per message"
		}
		backends.Rows = append(backends.Rows, labels(c.Name, c.Routine, fmt.Sprint(c.Collective), fmt.Sprint(c.Pads),
			fmt.Sprint(c.Packs), unpack, fmt.Sprint(c.Schedules), fmt.Sprint(c.Wire), fmt.Sprint(c.Async),
			fmt.Sprint(c.Packs || spectrum.AlltoallwGPUAware)))
	}
	return Result{Sections: []Section{libs, backends}}, nil
}

func runTable2() (Result, error) {
	s := Section{Header: []string{"paper software", "version", "simulated equivalent"}}
	for _, r := range [][3]string{
		{"CUDA / cuFFT", "11.0.3", "internal/fft kernels + internal/machine V100 cost model"},
		{"FFTW3", "3.3.9", "internal/fft (pure Go, plan-cached)"},
		{"heFFTe", "2.1", "internal/core (Algorithm 1 + grid shrinking + batching)"},
		{"Spectrum MPI", "10.4.1", "internal/mpisim on machine.Summit() (Alltoallw not GPU-aware)"},
		{"MVAPICH-GDR", "2.3.6", "internal/mpisim with AlltoallwGPUAware=true"},
		{"rocFFT", "-", "internal/machine MI100 cost model (machine.Spock())"},
	} {
		s.Rows = append(s.Rows, labels(r[:]...))
	}
	return Result{Sections: []Section{s}}, nil
}

func runTable3() (Result, error) {
	s := Section{Header: []string{"#GPUs", "input/output grid", "FFT grids (x,y,z pencils)"}}
	for _, e := range core.TableIII {
		s.Rows = append(s.Rows, []Cell{count(e.GPUs), label(fmt.Sprint(e.InOut)),
			label(fmt.Sprintf("(1, %d, %d) (%d, 1, %d) (%d, %d, 1)", e.P, e.Q, e.P, e.Q, e.P, e.Q))})
	}
	return Result{Sections: []Section{s}}, nil
}
