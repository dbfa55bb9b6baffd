package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID: "fig2",
		Title: "Per-call communication time: GPU-aware Alltoall/Alltoallv (SpectrumMPI) vs Alltoallw " +
			"(MVAPICH), 3-D C2C 512³ on 24 V100 (40 MPI calls)",
		Run: runFig2,
	})
	register(Experiment{
		ID: "fig3",
		Title: "Per-call communication time: blocking vs non-blocking Point-to-Point (SpectrumMPI), " +
			"3-D C2C 512³ on 24 V100",
		Run: runFig3,
	})
	register(Experiment{
		ID: "fig10",
		Title: "Per-call time of the batched 1-D cuFFT inside a 3-D FFT: contiguous input vs the " +
			"strided-input spike",
		Run: runFig10,
	})
}

// perCallRun executes the Fig. 2/3 protocol — 2 warm-up + 4 forward + 4
// backward transforms with brick I/O on 24 ranks — and returns the per-call
// series (max over ranks) of the named MPI events, concatenated in call
// order across names.
func perCallRun(mdl *machine.Model, planOpts core.Options, names []string) map[string][]float64 {
	const ranks = 24
	series := make(map[string][]float64, len(names))
	measure(mdl, ranks, true, tableIIIConfig(ranks, paperGrid, planOpts), 1, func(tr *trace.Tracer) {
		for _, name := range names {
			series[name] = tr.PerCall(name)
		}
	})
	return series
}

// runFig2 reports each variant's total over all calls (total_alltoall,
// total_alltoallv, total_alltoallw_mvapich, total_alltoallw_staged).
func runFig2() (Result, error) {
	type variant struct {
		label   string
		scalar  string
		mdl     *machine.Model
		backend core.Backend
		event   string
	}
	// The paper uses SpectrumMPI for Alltoall(v) and must switch to
	// MVAPICH-GDR for Alltoallw because SpectrumMPI 10.4 provides no
	// GPU-aware Alltoallw.
	mvapich := machine.Summit()
	mvapich.Name = "summit+mvapich-gdr"
	mvapich.AlltoallwGPUAware = true
	variants := []variant{
		{"MPI_Alltoall (SpectrumMPI)", "alltoall", machine.Summit(), core.BackendAlltoall, "MPI_Alltoall"},
		{"MPI_Alltoallv (SpectrumMPI)", "alltoallv", machine.Summit(), core.BackendAlltoallv, "MPI_Alltoallv"},
		{"MPI_Alltoallw (MVAPICH-GDR)", "alltoallw_mvapich", mvapich, core.BackendAlltoallw, "MPI_Alltoallw"},
		{"MPI_Alltoallw (SpectrumMPI, staged)", "alltoallw_staged", machine.Summit(), core.BackendAlltoallw, "MPI_Alltoallw"},
	}
	s := Section{Header: []string{"call#"}}
	series := make([][]float64, len(variants))
	totals := map[string]float64{}
	for i, v := range variants {
		series[i] = perCallRun(v.mdl, core.Options{Decomp: core.DecompPencils, Backend: v.backend}, []string{v.event})[v.event]
		s.Header = append(s.Header, v.label)
		totals["total_"+v.scalar] = sum(series[i])
	}
	for k := range series[0] {
		row := []Cell{count(k + 1)}
		for i := range variants {
			val := 0.0
			if k < len(series[i]) {
				val = series[i][k]
			}
			row = append(row, secs(val))
		}
		s.Rows = append(s.Rows, row)
	}
	s.Notes = []string{
		fmt.Sprintf("totals: alltoall %s, alltoallv %s, alltoallw(mvapich) %s, alltoallw(staged) %s",
			stats.FormatSeconds(totals["total_alltoall"]), stats.FormatSeconds(totals["total_alltoallv"]),
			stats.FormatSeconds(totals["total_alltoallw_mvapich"]), stats.FormatSeconds(totals["total_alltoallw_staged"])),
		"expected shape: alltoallw per call ≫ alltoall(v); alltoall ≈ alltoallv on the FFT-grid",
		"exchanges, with the gap concentrated in the padded brick↔pencil reshape calls",
	}
	return Result{Sections: []Section{s}, Scalars: totals}, nil
}

// fig3Events are the P2P calls Fig. 3 tabulates.
var fig3Events = []string{"MPI_Isend", "MPI_Send", "MPI_Waitany"}

// runFig3 reports blocking_ratio: the blocking variant's total over the
// non-blocking one's.
func runFig3() (Result, error) {
	type variant struct {
		label   string
		backend core.Backend
	}
	variants := []variant{
		{"non-blocking (MPI_Isend+MPI_Irecv)", core.BackendP2P},
		{"blocking (MPI_Send+MPI_Irecv)", core.BackendP2PBlocking},
	}
	s := Section{Header: []string{"variant", "event", "calls", "mean/call", "max/call", "total"}}
	totals := make([]float64, len(variants))
	for i, v := range variants {
		series := perCallRun(machine.Summit(), core.Options{Decomp: core.DecompPencils, Backend: v.backend}, fig3Events)
		for _, ev := range fig3Events {
			calls := series[ev]
			if len(calls) == 0 {
				continue
			}
			totals[i] += sum(calls)
			s.Rows = append(s.Rows, []Cell{label(v.label), label(ev), count(len(calls)),
				secs(stats.Mean(calls)), secs(stats.Max(calls)), secs(sum(calls))})
		}
	}
	ratio := totals[1] / totals[0]
	s.Notes = []string{fmt.Sprintf("blocking/non-blocking total ratio: %.2f (paper: \"not much difference\")", ratio)}
	return Result{Sections: []Section{s}, Scalars: map[string]float64{"blocking_ratio": ratio}}, nil
}

// runFig10 reports strided_spike: the strided kernel's mean per-call time
// over the contiguous one's.
func runFig10() (Result, error) {
	run := func(contig bool) map[string][]float64 {
		return perCallRun(machine.Summit(),
			core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv, Contiguous: contig},
			[]string{"cufft_1d", "cufft_1d_strided"})
	}
	contig, strided := run(true), run(false)
	s := Section{Header: []string{"mode", "kernel", "calls", "mean/call", "max/call"}}
	for _, row := range []struct {
		mode string
		s    map[string][]float64
	}{{"contiguous (transposed)", contig}, {"strided", strided}} {
		for _, k := range []string{"cufft_1d", "cufft_1d_strided"} {
			if len(row.s[k]) == 0 {
				continue
			}
			s.Rows = append(s.Rows, []Cell{label(row.mode), label(k), count(len(row.s[k])),
				secs(stats.Mean(row.s[k])), secs(stats.Max(row.s[k]))})
		}
	}
	spike := stats.Mean(strided["cufft_1d_strided"]) / stats.Mean(contig["cufft_1d"])
	s.Notes = []string{fmt.Sprintf("strided spike: %.1f× the contiguous per-call time (batch of %d-point 1-D FFTs)", spike, paperGrid[0])}
	return Result{Sections: []Section{s}, Scalars: map[string]float64{"strided_spike": spike}}, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
