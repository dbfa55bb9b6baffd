package bench

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/apps/lammps"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tuning"
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
		Title: "LAMMPS Rhodopsin proxy breakdown on 32 nodes: fftMPI-like KSPACE vs heFFTe " +
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
func breakdownRun(v core.Options) tuning.Measurement {
	const ranks = 24
	return measure(machine.Summit(), ranks, true, tableIIIConfig(ranks, paperGrid, v), 1, nil)
}

// breakdownFigure tabulates the per-transform breakdown of each variant.
func breakdownFigure(labels []string, variants []core.Options, notes ...string) Result {
	bds := make([]map[string]float64, len(variants))
	totals := make([]float64, len(variants))
	for i, v := range variants {
		m := breakdownRun(v)
		bds[i], totals[i] = m.Breakdown, m.TotalPerFFT
	}
	return Result{Sections: []Section{breakdownSection(append([]string{"kernel"}, labels...), bds, totals, notes...)}}
}

func runFig6() (Result, error) {
	return breakdownFigure([]string{"Alltoall+contiguous", "Alltoallv+strided"}, fig6Variants,
		"expected shape: Alltoall pays padding on the brick↔pencil reshapes; the strided",
		"variant trades cheaper pack/unpack for the strided cuFFT penalty"), nil
}

func runFig7() (Result, error) {
	return breakdownFigure([]string{"Isend/Irecv+contiguous", "Send/Irecv+strided"}, fig7Variants,
		"shape (asserted): totals within 10% of each other (the paper: ≈0.09 s per FFT);",
		"communication (send/recv/waitany) dominates at >90% of runtime"), nil
}

// lammpsShortRange are the Fig. 12 components the proxy records under their
// own names; every other event is KSPACE.
var lammpsShortRange = []string{"pair", "bond", "neigh", "comm", "other"}

// lammpsBreakdown runs 10 steps of the Rhodopsin proxy on 32 nodes and
// returns the Fig. 12 groups of the rank that finishes last (the lowest index
// on a tie), plus "wait", and the makespan they add up to.
func lammpsBreakdown(fftOpts core.Options, aware bool) (map[string]float64, float64) {
	const ranks = 192
	tr := newTracer()
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: aware, Tracer: tr})
	res := w.Run(func(c *mpisim.Comm) {
		s, err := lammps.New(c, lammps.Config{Atoms: 32000, Grid: paperGrid, FFT: fftOpts, Phantom: true})
		if err != nil {
			panic(err)
		}
		if _, err := s.Run(10); err != nil {
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

// runFig12 reports kspace_reduction (1 − heFFTe ÷ fftMPI-like KSPACE time)
// and step_reduction (the same for the makespan) for heFFTe on the paper's
// baseline communication profile, and prints the tuned profile beside it.
func runFig12() (Result, error) {
	// fftMPI-like: pencil decomposition, blocking Send/Irecv, host-staged MPI
	// — fftMPI communicates via host buffers.
	base, tb := lammpsBreakdown(core.Options{Decomp: core.DecompPencils, Backend: core.BackendP2PBlocking}, false)
	// heFFTe: best setting per Fig. 5 at 32 nodes — slabs below the 64-node
	// crossover — with GPU-aware Alltoallv, on the paper's baseline profile
	// and on the tuned one.
	heffte := core.Options{Decomp: core.DecompSlabs, Backend: core.BackendAlltoallv, Comm: paperBaseline}
	paper, tp := lammpsBreakdown(heffte, true)
	heffte.Comm = core.CommConfig{}
	tuned, tt := lammpsBreakdown(heffte, true)
	kspace, step := 1-paper["kspace"]/base["kspace"], 1-tp/tb
	s := breakdownSection([]string{"component", "fftMPI-like", "heFFTe", "heFFTe (tuned)"},
		[]map[string]float64{base, paper, tuned}, []float64{tb, tp, tt},
		fmt.Sprintf("KSPACE reduction: %s on the paper's baseline (vendor MPI_Alltoallv, one chunk; paper: ≈40%%), %s tuned",
			fmtPct(kspace), fmtPct(1-tuned["kspace"]/base["kspace"])),
		fmt.Sprintf("total step reduction: %s on the paper's baseline, %s tuned", fmtPct(step), fmtPct(1-tt/tb)))
	return Result{Sections: []Section{s}, Scalars: map[string]float64{"kspace_reduction": kspace, "step_reduction": step}}, nil
}
