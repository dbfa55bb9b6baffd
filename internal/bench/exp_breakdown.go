package bench

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/apps/lammps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID: "fig6",
		Title: "Runtime breakdown, 512³ on 24 V100, All-to-All: MPI_Alltoall + contiguous cuFFT vs " +
			"MPI_Alltoallv + strided cuFFT",
		Run: runFig6,
	})
	register(Experiment{
		ID: "fig7",
		Title: "Runtime breakdown, 512³ on 24 V100, Point-to-Point: non-blocking + contiguous vs " +
			"blocking + strided",
		Run: runFig7,
	})
	register(Experiment{
		ID: "fig12",
		Title: "LAMMPS Rhodopsin proxy breakdown on 32 nodes: fftMPI-like KSPACE vs tuned heFFTe " +
			"(≈40% KSPACE reduction)",
		Run: runFig12,
	})
}

// breakdownOrder fixes the row order of breakdown tables.
var breakdownOrder = []string{
	"cufft_1d", "cufft_1d_strided", "cufft_2d", "pack", "unpack", "batched_fft",
	"MPI_Alltoall", "MPI_Alltoallv", "MPI_Alltoallw",
	"MPI_Send", "MPI_Isend", "MPI_Irecv", "MPI_Waitany", "MPI_Wait(send)", "MPI_Wait(recv)",
	"MPI_Barrier",
}

// breakdownSection tabulates per-kernel totals, one column per variant, in
// breakdownOrder followed by any other kernel seen, with a TOTAL row.
func breakdownSection(labels []string, breakdowns []map[string]float64, notes ...string) Section {
	s := Section{Header: append([]string{"kernel"}, labels...), Notes: notes}
	rows := append([]string(nil), breakdownOrder...)
	for _, b := range breakdowns {
		for k := range b {
			if !slices.Contains(rows, k) {
				rows = append(rows, k)
			}
		}
	}
	totals := make([]float64, len(breakdowns))
	for _, name := range rows {
		row := []Cell{label(name)}
		nonzero := false
		for i, b := range breakdowns {
			nonzero = nonzero || b[name] > 0
			row = append(row, secs(b[name]))
			totals[i] += b[name]
		}
		if nonzero {
			s.Rows = append(s.Rows, row)
		}
	}
	total := []Cell{label("TOTAL")}
	for _, t := range totals {
		total = append(total, secs(t))
	}
	s.Rows = append(s.Rows, total)
	return s
}

func breakdownPair(opts RunOptions, variants []core.Options) []map[string]float64 {
	const ranks = 24
	out := make([]map[string]float64, len(variants))
	for i, v := range variants {
		r := fftRun{
			model: machine.Summit(), ranks: ranks, aware: true,
			cfg: tableIIIConfig(ranks, gridFor(opts), v),
		}
		out[i] = r.run().Breakdown
	}
	return out
}

func runFig6(opts RunOptions) (Result, error) {
	bd := breakdownPair(opts, []core.Options{
		{Decomp: core.DecompPencils, Backend: core.BackendAlltoall, Contiguous: true},
		{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv, Contiguous: false},
	})
	return Result{Sections: []Section{breakdownSection([]string{"Alltoall+contiguous", "Alltoallv+strided"}, bd,
		"expected shape: Alltoall pays padding on the brick↔pencil reshapes; the strided",
		"variant trades cheaper pack/unpack for the strided cuFFT penalty")}}, nil
}

func runFig7(opts RunOptions) (Result, error) {
	bd := breakdownPair(opts, []core.Options{
		{Decomp: core.DecompPencils, Backend: core.BackendP2P, Contiguous: true},
		{Decomp: core.DecompPencils, Backend: core.BackendP2PBlocking, Contiguous: false},
	})
	return Result{Sections: []Section{breakdownSection([]string{"Isend/Irecv+contiguous", "Send/Irecv+strided"}, bd,
		"expected shape: total ≈ equal for both (≈0.09 s per FFT at the paper's scale);",
		"communication (send/recv/waitany) dominates at >90% of runtime")}}, nil
}

// lammpsBreakdown runs the Rhodopsin proxy and returns the aggregated
// breakdown groups of Fig. 12.
func lammpsBreakdown(opts RunOptions, fftOpts core.Options, aware bool, steps int) map[string]float64 {
	ranks := 192
	grid := [3]int{512, 512, 512}
	if opts.Quick {
		ranks = 24
		grid = [3]int{64, 64, 64}
	}
	tr := trace.New()
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: aware, Tracer: tr})
	w.Run(func(c *mpisim.Comm) {
		s, err := lammps.New(c, lammps.Config{Atoms: 32000, Grid: grid, FFT: fftOpts, Phantom: true})
		if err != nil {
			panic(err)
		}
		if _, err := s.Run(steps); err != nil {
			panic(err)
		}
	})
	// Summed in sorted name order, so the totals are bit-reproducible.
	totals := tr.TotalByName(-1)
	groups := map[string]float64{}
	for _, name := range tr.Names() {
		switch name {
		case "pair", "bond", "neigh", "comm", "other":
			groups[name] += totals[name]
		default:
			// Everything else — FFT kernels, packs, MPI inside the plan,
			// charge/force maps — is KSPACE.
			groups["kspace"] += totals[name]
		}
	}
	return groups
}

// runFig12 reports kspace_reduction (1 − tuned ÷ baseline KSPACE time) and
// step_reduction (the same for the whole step).
func runFig12(opts RunOptions) (Result, error) {
	steps := 10
	if opts.Quick {
		steps = 3
	}
	// Baseline: fftMPI-like (pencil decomposition, blocking Send/Irecv,
	// host-staged MPI — fftMPI communicates via host buffers).
	base := lammpsBreakdown(opts, core.Options{Decomp: core.DecompPencils, Backend: core.BackendP2PBlocking}, false, steps)
	// Tuned heFFTe: best setting per Fig. 5 at 32 nodes — slabs below the
	// 64-node crossover — with GPU-aware Alltoallv.
	tuned := lammpsBreakdown(opts, core.Options{Decomp: core.DecompSlabs, Backend: core.BackendAlltoallv}, true, steps)
	var names []string
	for k := range base {
		names = append(names, k)
	}
	sort.Strings(names)
	s := Section{Header: []string{"component", "fftMPI-like", "tuned heFFTe"}}
	var tb, tt float64
	for _, n := range names {
		s.Rows = append(s.Rows, []Cell{label(n), secs(base[n]), secs(tuned[n])})
		tb += base[n]
		tt += tuned[n]
	}
	s.Rows = append(s.Rows, []Cell{label("TOTAL"), secs(tb), secs(tt)})
	kspace, step := 1-tuned["kspace"]/base["kspace"], 1-tt/tb
	s.Notes = []string{fmt.Sprintf("KSPACE reduction: %s (paper: ≈40%%); total step reduction: %s", fmtPct(kspace), fmtPct(step))}
	return Result{Sections: []Section{s}, Scalars: map[string]float64{"kspace_reduction": kspace, "step_reduction": step}}, nil
}
