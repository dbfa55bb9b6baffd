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

	"repro/heffte"
	"repro/internal/bench"
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
		algo       = flag.String("algo", "auto", "all-to-all schedule of a scheduling backend (alltoallv): auto|linear|pairwise|ring|bruck|node-aware")
		placement  = flag.String("placement", "block", "rank→GPU placement: block|round-robin")
		wire       = flag.String("wire", "fp64", "on-wire precision of interior exchanges: fp64|fp32|fp16")
	)
	flag.Parse()

	// exit reports err, if any, and exits with status: 2 for a setting the
	// run cannot take, 1 for a failed write.
	exit := func(status int, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftsim:", err)
			os.Exit(status)
		}
	}
	fail := func(err error) { exit(2, err) }
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every setting is a -flag, and flags come first", flag.Arg(0)))
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
	opts.Comm.Algo, err = parseName("collective algorithm", *algo, heffte.AlgoAuto, heffte.AlgoLinear,
		heffte.AlgoPairwise, heffte.AlgoRing, heffte.AlgoBruck, heffte.AlgoNodeAware)
	fail(err)
	opts.Comm.Wire, err = parseName("wire precision", *wire, heffte.WireFp64, heffte.WireFp32, heffte.WireFp16)
	fail(err)
	place, err := parsePlacement(*placement)
	fail(err)
	mdl, err := parseMachine(*mach)
	fail(err)

	tr := heffte.NewTracer()
	w := heffte.NewWorld(mdl, *ranks, heffte.WorldOptions{GPUAware: !*noAware, Tracer: tr, Placement: place})
	var traceErr error
	m, err := tuning.MeasureWorld(w, heffte.Config{Global: [3]int{*n, *n, *n}, Opts: opts}, *batch, *iters, func(*heffte.Tracer) {
		if *traceOut != "" {
			traceErr = heffte.WriteChromeFile(tr, *traceOut)
		}
	})
	fail(err)
	exit(1, traceErr)

	head := fmt.Sprintf("machine=%s ranks=%d nodes=%d transform=%d³ decomp=%v backend=%v gpu-aware=%v batch=%d",
		mdl.Name, *ranks, mdl.Nodes(*ranks), *n, m.Decomp, opts.Backend, !*noAware, *batch)
	if opts.Comm.Wire != heffte.WireFp64 {
		head += fmt.Sprintf(" wire=%s", opts.Comm.Wire)
	}
	s := bench.Section{Lead: []string{head, fmt.Sprintf("exchanges per transform: %d", m.Exchanges)}}
	if opts.Backend.Capabilities().Schedules && len(m.Phases) > 0 {
		comm := "comm:"
		for _, ph := range m.Phases {
			if ph.GroupSize == 0 {
				continue
			}
			comm += fmt.Sprintf(" %s=%s", ph.Label, ph.Algo)
			if ph.Wire != heffte.WireFp64 {
				comm += fmt.Sprintf("@%s", ph.Wire)
			}
			if ph.Schedule != "" && ph.Schedule != "flat" {
				comm += fmt.Sprintf("[%s]", ph.Schedule)
			}
		}
		s.Lead = append(s.Lead, comm)
	}
	s.Lead = append(s.Lead, fmt.Sprintf("time per transform: %s  (%.1f GFLOP/s aggregate)",
		heffte.FormatSeconds(m.TotalPerFFT), heffte.Gflops(heffte.FFTFlops(*n**n**n), m.TotalPerFFT)))
	if *traceOut != "" {
		s.Lead = append(s.Lead, fmt.Sprintf("virtual timeline written to %s (open in chrome://tracing or Perfetto)", *traceOut))
	}

	// Per transform, the timed section of the rank that finishes it last;
	// wait is what none of its events covers, the closing barrier included.
	s.Header = []string{"kernel", fmt.Sprintf("per transform (rank %d, last to finish)", m.Last)}
	for _, k := range append(tr.Names(), "wait") {
		if v := m.Breakdown[k]; v > 0 || k == "wait" {
			s.Rows = append(s.Rows, []bench.Cell{{Text: k}, {V: v, Text: heffte.FormatSeconds(v)}})
		}
	}
	exit(1, bench.RenderBody(os.Stdout, bench.Result{Sections: []bench.Section{s}}))
}

func parseOptions(decomp, backend string, contiguous bool, shrink int) (heffte.Options, error) {
	o := heffte.Options{Contiguous: contiguous, ShrinkThreshold: shrink}
	var err error
	if o.Decomp, err = parseName("decomposition", decomp,
		heffte.DecompAuto, heffte.DecompSlabs, heffte.DecompPencils, heffte.DecompBricks); err != nil {
		return o, err
	}
	o.Backend, err = parseName("backend", backend, heffte.BackendAlltoall, heffte.BackendAlltoallv,
		heffte.BackendAlltoallw, heffte.BackendP2P, heffte.BackendP2PBlocking)
	return o, err
}

// parseName returns the value among vals that prints as s.
func parseName[T fmt.Stringer](what, s string, vals ...T) (T, error) {
	for _, v := range vals {
		if v.String() == s {
			return v, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q", what, s)
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
