// Command fftsim runs a single distributed FFT with explicit options on the
// simulated machine and prints the timing breakdown — the building block of
// every experiment, exposed for ad-hoc exploration.
//
// Usage:
//
//	fftsim -n 512 -ranks 24 -decomp pencils -backend alltoallv
//	fftsim -n 512 -ranks 96 -backend p2p -no-gpu-aware -machine summit
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"

	"repro/heffte"
	"repro/internal/tuning"
)

func main() {
	var (
		n          = flag.Int("n", 128, "cube size N (transform is N³)")
		ranks      = flag.Int("ranks", 24, "number of MPI ranks (1 per GPU)")
		decomp     = flag.String("decomp", "auto", "auto|slabs|pencils|bricks")
		backend    = flag.String("backend", "alltoallv", "alltoall|alltoallv|alltoallw|p2p|p2p-blocking")
		contiguous = flag.Bool("contiguous", false, "transpose data for contiguous local FFTs")
		noAware    = flag.Bool("no-gpu-aware", false, "disable GPU-aware MPI (stage through host)")
		mach       = flag.String("machine", "summit", "summit|spock")
		shrink     = flag.Int("shrink", 0, "grid-shrinking threshold in elements/rank (0 = off)")
		batch      = flag.Int("batch", 1, "transforms per batched call")
		iters      = flag.Int("iters", tuning.Timed, "timed transforms (half forward, half backward)")
		traceOut   = flag.String("trace", "", "write the virtual timeline as Chrome trace-event JSON to this file")
		algo       = flag.String("algo", "auto", "alltoallv schedule: auto|linear|pairwise|ring|bruck|node-aware")
		placement  = flag.String("placement", "block", "rank→GPU placement: block|round-robin")
		wire       = flag.String("wire", "fp64", "on-wire precision of interior exchanges: fp64|fp32|fp16")
	)
	flag.Parse()

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftsim:", err)
			os.Exit(2)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-n", *n}, {"-ranks", *ranks}, {"-batch", *batch}, {"-iters", *iters}} {
		if f.v < 1 {
			fail(fmt.Errorf("%s must be at least 1, got %d", f.name, f.v))
		}
	}
	if *shrink < 0 {
		fail(fmt.Errorf("-shrink must be at least 0, got %d", *shrink))
	}
	opts, err := parseOptions(*decomp, *backend, *contiguous, *shrink)
	fail(err)
	opts.Comm.Algo, err = parseAlgo(*algo)
	fail(err)
	opts.Comm.Wire, err = parseWire(*wire)
	fail(err)
	place, err := parsePlacement(*placement)
	fail(err)
	mdl, err := parseMachine(*mach)
	fail(err)

	tr := heffte.NewTracer()
	w := heffte.NewWorld(mdl, *ranks, heffte.WorldOptions{GPUAware: !*noAware, Tracer: tr, Placement: place})
	global := [3]int{*n, *n, *n}
	var perFFT float64
	var resolved heffte.Decomposition
	var exchanges int
	var phases []heffte.CommPhase
	// Every rank passes the same Config, so a configuration the library
	// rejects is rejected on all of them and nobody is left in a collective.
	var planErr error
	var from float64
	ends := make([]float64, *ranks)
	w.Run(func(c *heffte.Comm) {
		p, err := heffte.NewPlan(c, heffte.Config{Global: global, Opts: opts})
		if err != nil {
			if c.Rank() == 0 {
				planErr = err
			}
			return
		}
		start, end, per, err := tuning.Measure(c, p, *batch, *iters)
		if err != nil {
			panic(err)
		}
		ends[c.Rank()] = end
		if c.Rank() == 0 {
			from, perFFT = start, per
			resolved = p.Decomp()
			exchanges = p.Exchanges()
			phases = p.CommPhases()
		}
	})

	fail(planErr)

	fmt.Printf("machine=%s ranks=%d nodes=%d transform=%d³ decomp=%v backend=%v gpu-aware=%v batch=%d",
		mdl.Name, *ranks, mdl.Nodes(*ranks), *n, resolved, opts.Backend, !*noAware, *batch)
	if opts.Comm.Wire != heffte.WireFp64 {
		fmt.Printf(" wire=%s", opts.Comm.Wire)
	}
	fmt.Println()
	fmt.Printf("exchanges per transform: %d\n", exchanges)
	if opts.Backend == heffte.BackendAlltoallv && len(phases) > 0 {
		fmt.Printf("comm:")
		for _, ph := range phases {
			if ph.GroupSize == 0 {
				continue
			}
			fmt.Printf(" %s=%s", ph.Label, ph.Algo)
			if ph.Wire != heffte.WireFp64 {
				fmt.Printf("@%s", ph.Wire)
			}
			if ph.Schedule != "" && ph.Schedule != "flat" {
				fmt.Printf("[%s]", ph.Schedule)
			}
		}
		fmt.Println()
	}
	fmt.Printf("time per transform: %s  (%.1f GFLOP/s aggregate)\n",
		heffte.FormatSeconds(perFFT), heffte.Gflops(heffte.FFTFlops(*n**n**n)*float64(*batch), perFFT*float64(*batch)))

	if *traceOut != "" {
		if err := heffte.WriteChromeFile(tr, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "fftsim:", err)
			os.Exit(1)
		}
		fmt.Printf("virtual timeline written to %s (open in chrome://tracing or Perfetto)\n", *traceOut)
	}

	// Per transform, the timed section of the rank that finishes it last;
	// wait is what none of its events covers, the closing barrier included.
	tr.Prune(from)
	last := slices.Index(ends, slices.Max(ends))
	rows := tr.Breakdown(last, *iters, perFFT)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "kernel\tper transform (rank %d, last to finish)\n", last)
	for _, k := range tr.Names() {
		if v := rows[k]; v > 0 {
			fmt.Fprintf(tw, "%s\t%s\n", k, heffte.FormatSeconds(v))
		}
	}
	fmt.Fprintf(tw, "wait\t%s\n", heffte.FormatSeconds(rows["wait"]))
	tw.Flush()
}

func parseOptions(decomp, backend string, contiguous bool, shrink int) (heffte.Options, error) {
	o := heffte.Options{Contiguous: contiguous, ShrinkThreshold: shrink}
	switch decomp {
	case "auto":
		o.Decomp = heffte.DecompAuto
	case "slabs":
		o.Decomp = heffte.DecompSlabs
	case "pencils":
		o.Decomp = heffte.DecompPencils
	case "bricks":
		o.Decomp = heffte.DecompBricks
	default:
		return o, fmt.Errorf("unknown decomposition %q", decomp)
	}
	switch backend {
	case "alltoall":
		o.Backend = heffte.BackendAlltoall
	case "alltoallv":
		o.Backend = heffte.BackendAlltoallv
	case "alltoallw":
		o.Backend = heffte.BackendAlltoallw
	case "p2p":
		o.Backend = heffte.BackendP2P
	case "p2p-blocking":
		o.Backend = heffte.BackendP2PBlocking
	default:
		return o, fmt.Errorf("unknown backend %q", backend)
	}
	return o, nil
}

func parseAlgo(algo string) (heffte.CollectiveAlgo, error) {
	switch algo {
	case "auto":
		return heffte.AlgoAuto, nil
	case "linear":
		return heffte.AlgoLinear, nil
	case "pairwise":
		return heffte.AlgoPairwise, nil
	case "ring":
		return heffte.AlgoRing, nil
	case "bruck":
		return heffte.AlgoBruck, nil
	case "node-aware":
		return heffte.AlgoNodeAware, nil
	}
	return heffte.AlgoAuto, fmt.Errorf("unknown collective algorithm %q", algo)
}

func parseWire(w string) (heffte.WirePrecision, error) {
	switch w {
	case "fp64", "":
		return heffte.WireFp64, nil
	case "fp32":
		return heffte.WireFp32, nil
	case "fp16":
		return heffte.WireFp16, nil
	}
	return heffte.WireFp64, fmt.Errorf("unknown wire precision %q", w)
}

func parseMachine(m string) (*heffte.Machine, error) {
	switch m {
	case "summit":
		return heffte.Summit(), nil
	case "spock":
		return heffte.Spock(), nil
	}
	return nil, fmt.Errorf("unknown machine %q", m)
}

func parsePlacement(p string) (heffte.Placement, error) {
	switch p {
	case "block", "":
		return heffte.PlaceBlock(), nil
	case "round-robin":
		return heffte.PlaceRoundRobin(), nil
	}
	return heffte.Placement{}, fmt.Errorf("unknown placement %q", p)
}
