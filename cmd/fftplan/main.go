// Command fftplan inspects distributed-FFT plans and evaluates the
// bandwidth model of Section III: given a transform size and a process
// count it prints the predicted slab/pencil times (equations 2–3), the
// recommended decomposition, and — with -phase — the full phase diagram the
// paper uses to pick the best setting per machine.
//
// With -dead it also evaluates the elastic-recovery model: the world epoch
// and survivor set after that many rank deaths, the closed-form recovery-
// reshape time, and the predicted resume-vs-restart speedup per kill phase.
//
// Usage:
//
//	fftplan -n 512 -ranks 768
//	fftplan -n 512 -ranks 768 -dead 2
//	fftplan -phase
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/heffte"
	"repro/internal/bench"
)

func main() {
	var (
		n     = flag.Int("n", 512, "cube size N (transform is N³)")
		ranks = flag.Int("ranks", 24, "number of MPI ranks (1 per GPU)")
		phase = flag.Bool("phase", false, "print a size × ranks phase diagram (takes -bw and -lat only)")
		bw    = flag.Float64("bw", 23.5e9, "model bandwidth B in bytes/s (paper: 23.5 GB/s)")
		lat   = flag.Float64("lat", 1e-6, "model latency L in seconds (paper: 1 µs)")
		wire  = flag.String("wire", "fp64", "on-wire precision of interior exchanges: fp64|fp32|fp16")
		dead  = flag.Int("dead", 0, "evaluate the elastic-recovery model after this many rank deaths")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fftplan:", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every setting is a -flag, and flags come first", flag.Arg(0)))
	}
	if *phase {
		// The diagram sweeps its own sizes and rank counts at full precision.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n", "ranks", "wire", "dead":
				fail(fmt.Errorf("-%s does not apply to -phase, which sweeps sizes and rank counts at fp64", f.Name))
			}
		})
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-n", *n}, {"-ranks", *ranks}} {
		if f.v < 1 {
			fail(fmt.Errorf("%s must be at least 1, got %d", f.name, f.v))
		}
	}
	if !(*bw > 0) {
		fail(fmt.Errorf("-bw must be positive, got %g", *bw))
	}
	if !(*lat >= 0) {
		fail(fmt.Errorf("-lat must not be negative, got %g", *lat))
	}
	if *dead < 0 || *dead >= *ranks {
		fail(fmt.Errorf("-dead must be in [0, %d) for %d ranks, got %d", *ranks, *ranks, *dead))
	}
	wp, err := parseWire(*wire)
	if err != nil {
		fail(err)
	}
	params := heffte.ModelParams{Latency: *lat, Bandwidth: *bw}

	var s bench.Section
	if *phase {
		s = phaseDiagram(params)
	} else {
		s = planReport(*n, *ranks, *dead, wp, params)
	}
	if err := bench.RenderBody(os.Stdout, bench.Result{Sections: []bench.Section{s}}); err != nil {
		fmt.Fprintln(os.Stderr, "fftplan:", err)
		os.Exit(1)
	}
}

// planReport is the model's view of one n³ transform on ranks GPUs, and with
// dead > 0 of its elastic recovery.
func planReport(n, ranks, dead int, wp heffte.WirePrecision, params heffte.ModelParams) (s bench.Section) {
	e := heffte.LookupTableIII(ranks)
	total := n * n * n
	ts := heffte.SlabTime(total, ranks, params)
	tp := heffte.PencilTime(total, e.P, e.Q, params)
	add := func(key, text string) { s.Rows = append(s.Rows, []bench.Cell{{Text: key}, {Text: text}}) }
	add("transform", fmt.Sprintf("%d³ complex-to-complex (%d elements)", n, total))
	add("ranks", fmt.Sprintf("%d (%d Summit nodes)", ranks, heffte.Summit().Nodes(ranks)))
	add("input/output bricks", fmt.Sprintf("%v (Table III / min-surface)", e.InOut))
	add("pencil grid", fmt.Sprintf("%d × %d", e.P, e.Q))
	add("T_slabs (eq. 2)", heffte.FormatSeconds(ts))
	add("T_pencils (eq. 3)", heffte.FormatSeconds(tp))
	if wp != heffte.WireFp64 {
		elem := float64(wp.ComplexBytes())
		tsc := heffte.SlabTimeElem(total, ranks, elem, params)
		tpc := heffte.PencilTimeElem(total, e.P, e.Q, elem, params)
		add(fmt.Sprintf("T_slabs @%s", wp), fmt.Sprintf("%s (bound %.1e)", heffte.FormatSeconds(tsc), heffte.WireErrorBound(wp, 1)))
		add(fmt.Sprintf("T_pencils @%s", wp), fmt.Sprintf("%s (bound %.1e)", heffte.FormatSeconds(tpc), heffte.WireErrorBound(wp, 2)))
	}
	rec := "pencils"
	best := tp
	if heffte.PreferSlabs([3]int{n, n, n}, e.P, e.Q, params) {
		rec = "slabs"
		best = ts
	}
	add("recommended decomposition", rec)

	if dead > 0 {
		// Elastic-recovery view: one shrink event losing dead GPUs. The
		// concrete survivor set is a runtime fact (CommPhases reports it per
		// plan, with the epoch); here the model prices the recovery reshape
		// that redistributes a checkpointed boundary to the survivors and the
		// resume-vs-restart gap per kill phase of the pencil pipeline
		// (4 reshapes interleaved with 3 compute phases).
		surv := ranks - dead
		trec := heffte.RecoveryReshapeTime(total, ranks, surv, 16, params)
		add(fmt.Sprintf("after %d death(s)", dead), fmt.Sprintf("epoch 1, %d survivors", surv))
		add("T_recovery_reshape", heffte.FormatSeconds(trec))
		const totalPhases = 7
		for _, kp := range []struct {
			name      string
			completed int
		}{{"early kill (1/7 phases done)", 1}, {"middle kill (4/7)", 4}, {"late kill (6/7)", 6}} {
			add("resume speedup, "+kp.name, fmt.Sprintf("%.2fx", heffte.ResumeSpeedup(best, trec, kp.completed, totalPhases)))
		}
	}
	return s
}

func parseWire(w string) (heffte.WirePrecision, error) {
	for _, wp := range []heffte.WirePrecision{heffte.WireFp64, heffte.WireFp32, heffte.WireFp16} {
		if wp.String() == w {
			return wp, nil
		}
	}
	return heffte.WireFp64, fmt.Errorf("unknown wire precision %q", w)
}

// phaseDiagram is the predicted winner over cube sizes × rank counts.
func phaseDiagram(params heffte.ModelParams) bench.Section {
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	pis := []int{6, 12, 24, 48, 96, 192, 384, 768, 1536, 3072}
	grid := func(pi int) (int, int) {
		e := heffte.LookupTableIII(pi)
		return e.P, e.Q
	}
	s := bench.Section{
		Header: []string{"N\\ranks"},
		Notes:  []string{"", "SLABS = slab decomposition predicted fastest (eqs. 2-3, Section IV.A)"},
	}
	for _, pi := range pis {
		s.Header = append(s.Header, fmt.Sprint(pi))
	}
	for i, pt := range heffte.PhaseDiagram(sizes, pis, grid, params) {
		if i%len(pis) == 0 {
			s.Rows = append(s.Rows, []bench.Cell{{Text: fmt.Sprintf("%d³", pt.N[0])}})
		}
		cell := bench.Cell{Text: "pencils"}
		if pt.Slabs {
			cell.Text = "SLABS"
		}
		s.Rows[len(s.Rows)-1] = append(s.Rows[len(s.Rows)-1], cell)
	}
	return s
}
