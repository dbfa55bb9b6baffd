package bench

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/apps/lammps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
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

// breakdownSection tabulates breakdowns, one column each, under header: every
// name with a nonzero entry in sorted order, then wait and the TOTAL each
// column's rows add up to.
func breakdownSection(header []string, breakdowns []map[string]float64, totals []float64, notes ...string) Section {
	s := Section{Header: header, Notes: notes}
	var names []string
	for _, b := range breakdowns {
		for k, v := range b {
			if v > 0 && k != "wait" && !slices.Contains(names, k) {
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	for _, name := range append(names, "wait") {
		row := []Cell{label(name)}
		for _, b := range breakdowns {
			row = append(row, secs(b[name]))
		}
		s.Rows = append(s.Rows, row)
	}
	total := []Cell{label("TOTAL")}
	for _, t := range totals {
		total = append(total, secs(t))
	}
	s.Rows = append(s.Rows, total)
	return s
}

// fig6Variants and fig7Variants are the two plan settings each figure
// compares.
var (
	fig6Variants = []core.Options{
		{Decomp: core.DecompPencils, Backend: core.BackendAlltoall, Contiguous: true},
		{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv, Contiguous: false},
	}
	fig7Variants = []core.Options{
		{Decomp: core.DecompPencils, Backend: core.BackendP2P, Contiguous: true},
		{Decomp: core.DecompPencils, Backend: core.BackendP2PBlocking, Contiguous: false},
	}
)

// breakdownRun is one variant of Figs. 6/7: 24 ranks, Table III grids.
func breakdownRun(opts RunOptions, v core.Options) measured {
	const ranks = 24
	return fftRun{
		model: machine.Summit(), ranks: ranks, aware: true,
		cfg: tableIIIConfig(ranks, gridFor(opts), v),
	}.run()
}

// breakdownFigure tabulates the per-transform breakdown of each variant.
func breakdownFigure(opts RunOptions, labels []string, variants []core.Options, notes ...string) Result {
	bds := make([]map[string]float64, len(variants))
	totals := make([]float64, len(variants))
	for i, v := range variants {
		m := breakdownRun(opts, v)
		bds[i], totals[i] = m.Breakdown, m.TotalPerFFT
	}
	return Result{Sections: []Section{breakdownSection(append([]string{"kernel"}, labels...), bds, totals, notes...)}}
}

func runFig6(opts RunOptions) (Result, error) {
	return breakdownFigure(opts, []string{"Alltoall+contiguous", "Alltoallv+strided"}, fig6Variants,
		"expected shape: Alltoall pays padding on the brick↔pencil reshapes; the strided",
		"variant trades cheaper pack/unpack for the strided cuFFT penalty"), nil
}

func runFig7(opts RunOptions) (Result, error) {
	return breakdownFigure(opts, []string{"Isend/Irecv+contiguous", "Send/Irecv+strided"}, fig7Variants,
		"expected shape: total ≈ equal for both (≈0.09 s per FFT at the paper's scale);",
		"communication (send/recv/waitany) dominates at >90% of runtime"), nil
}

// lammpsShortRange are the Fig. 12 components the proxy records under their
// own names; every other event is KSPACE.
var lammpsShortRange = []string{"pair", "bond", "neigh", "comm", "other"}

// lammpsBreakdown runs the Rhodopsin proxy and returns the Fig. 12 groups of
// the rank that finishes last (the lowest index on a tie), plus "wait", and
// the makespan they add up to.
func lammpsBreakdown(opts RunOptions, fftOpts core.Options, aware bool, steps int) (map[string]float64, float64) {
	ranks := 192
	grid := [3]int{512, 512, 512}
	if opts.Quick {
		ranks = 24
		grid = [3]int{64, 64, 64}
	}
	tr := newTracer()
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: aware, Tracer: tr})
	res := w.Run(func(c *mpisim.Comm) {
		s, err := lammps.New(c, lammps.Config{Atoms: 32000, Grid: grid, FFT: fftOpts, Phantom: true})
		if err != nil {
			panic(err)
		}
		if _, err := s.Run(steps); err != nil {
			panic(err)
		}
	})
	rows := tr.Breakdown(slices.Index(res.Clocks, res.MaxClock), 1, res.MaxClock)
	groups := map[string]float64{"wait": rows["wait"]}
	for _, name := range tr.Names() { // sorted, so the sums are bit-reproducible
		group := "kspace" // FFT kernels, packs, MPI inside the plan, charge/force maps
		if slices.Contains(lammpsShortRange, name) {
			group = name
		}
		groups[group] += rows[name]
	}
	return groups, res.MaxClock
}

// runFig12 reports kspace_reduction (1 − tuned ÷ baseline KSPACE time) and
// step_reduction (the same for the makespan).
func runFig12(opts RunOptions) (Result, error) {
	steps := 10
	if opts.Quick {
		steps = 3
	}
	// Baseline: fftMPI-like (pencil decomposition, blocking Send/Irecv,
	// host-staged MPI — fftMPI communicates via host buffers).
	base, tb := lammpsBreakdown(opts, core.Options{Decomp: core.DecompPencils, Backend: core.BackendP2PBlocking}, false, steps)
	// Tuned heFFTe: best setting per Fig. 5 at 32 nodes — slabs below the
	// 64-node crossover — with GPU-aware Alltoallv.
	tuned, tt := lammpsBreakdown(opts, core.Options{Decomp: core.DecompSlabs, Backend: core.BackendAlltoallv}, true, steps)
	kspace, step := 1-tuned["kspace"]/base["kspace"], 1-tt/tb
	s := breakdownSection([]string{"component", "fftMPI-like", "tuned heFFTe"},
		[]map[string]float64{base, tuned}, []float64{tb, tt},
		fmt.Sprintf("KSPACE reduction: %s (paper: ≈40%%); total step reduction: %s", fmtPct(kspace), fmtPct(step)))
	return Result{Sections: []Section{s}, Scalars: map[string]float64{"kspace_reduction": kspace, "step_reduction": step}}, nil
}
