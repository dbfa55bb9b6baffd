// Command fftbench regenerates the tables and figures of the paper's
// evaluation at the paper's scales (512³, up to 3072 GPUs). Each experiment
// prints the same rows/series the paper reports, computed on the simulated
// Summit/Spock machines. Stdout is deterministic (the elastic experiment
// aside) and `fftbench -all` reproduces experiments_full.txt, which the
// internal/bench tests compare against; per-experiment wall-clock goes to
// stderr.
//
// Usage:
//
//	fftbench -list            # show all experiments
//	fftbench -exp fig4        # reproduce Fig. 4
//	fftbench -all             # every experiment (make experiments)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp  = flag.String("exp", "", "experiment id (e.g. fig4, table3); see -list")
		list = flag.Bool("list", false, "list available experiments")
		all  = flag.Bool("all", false, "run every experiment")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fftbench:", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every setting is a -flag, and flags come first", flag.Arg(0)))
	}
	modes := 0
	for _, on := range []bool{*list, *all, *exp != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fail(fmt.Errorf("-list, -all and -exp exclude one another"))
	}
	if _, ok := bench.Lookup(*exp); *exp != "" && !ok {
		fail(fmt.Errorf("unknown experiment %q (try `fftbench -list`)", *exp))
	}

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case *all:
		for _, e := range bench.All() {
			runOne(e.ID)
		}
	case *exp != "":
		runOne(*exp)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne runs one experiment and renders it on stdout; the wall-clock line
// goes to stderr so stdout depends only on the virtual-time results.
func runOne(id string) {
	t0 := time.Now()
	res, err := bench.Run(id)
	if err == nil {
		e, _ := bench.Lookup(id)
		err = bench.Render(os.Stdout, e, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %s]\n", id, time.Since(t0).Round(time.Millisecond))
}
