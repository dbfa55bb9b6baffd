// LAMMPS KSPACE example: run the Rhodopsin-like MD proxy twice — once with
// an fftMPI-like FFT configuration and once with tuned heFFTe settings — and
// print the per-step breakdown, reproducing the Fig. 12 comparison at a
// laptop-friendly scale.
//
//	go run ./examples/lammps_kspace
package main

import (
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"text/tabwriter"

	"repro/heffte"
	"repro/internal/apps/lammps"
)

func main() {
	const (
		ranks = 24 // 4 Summit nodes
		steps = 5
	)
	grid := [3]int{64, 64, 64}

	run := func(label string, opts heffte.Options, gpuAware bool) map[string]float64 {
		tr := heffte.NewTracer()
		w := heffte.NewWorld(heffte.Summit(), ranks, heffte.WorldOptions{GPUAware: gpuAware, Tracer: tr})
		res := w.Run(func(c *heffte.Comm) {
			sim, err := lammps.New(c, lammps.Config{
				Atoms: 32000, Grid: grid, FFT: opts, Phantom: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := sim.Run(steps); err != nil {
				log.Fatal(err)
			}
		})
		// The Fig. 12 components of the rank that finishes last, summed in
		// sorted name order; wait is the part of its run no event covers.
		rows := tr.Breakdown(slices.Index(res.Clocks, res.MaxClock), 1, res.MaxClock)
		groups := map[string]float64{"wait": rows["wait"]}
		for _, name := range tr.Names() {
			switch name {
			case "pair", "bond", "neigh", "comm", "other":
				groups[name] += rows[name]
			default:
				groups["kspace"] += rows[name]
			}
		}
		fmt.Printf("-- %s --\n", label)
		printGroups(groups, res.MaxClock)
		return groups
	}

	base := run("fftMPI-like baseline (pencils, blocking P2P, host MPI)",
		heffte.Options{Decomp: heffte.DecompPencils, Backend: heffte.BackendP2PBlocking}, false)
	tuned := run("tuned heFFTe (slabs, GPU-aware Alltoallv — per the Fig. 5 regions)",
		heffte.Options{Decomp: heffte.DecompSlabs, Backend: heffte.BackendAlltoallv}, true)

	fmt.Printf("KSPACE reduction from tuning: %.0f%% (paper Fig. 12: ≈40%%)\n",
		100*(1-tuned["kspace"]/base["kspace"]))
}

// printGroups prints each group's time and share of the makespan, which the
// groups add up to.
func printGroups(groups map[string]float64, makespan float64) {
	var names []string
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, n := range names {
		fmt.Fprintf(tw, "%s\t%.3f ms\t%.0f%%\n", n, groups[n]*1e3, 100*groups[n]/makespan)
	}
	fmt.Fprintf(tw, "TOTAL\t%.3f ms\n", makespan*1e3)
	tw.Flush()
	fmt.Println()
}
