// Package bench regenerates every table and figure of the paper's evaluation
// (Section II–IV): each experiment runs the relevant workloads on the
// simulated machine and prints the same rows/series the paper reports, in
// virtual time. The cmd/fftbench CLI is a thin wrapper over this package; host
// wall-clock and memory are measured by the repository benchmark
// (`go run ./benchmark`), not here.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// RunOptions tunes an experiment run.
type RunOptions struct {
	// Quick shrinks grids and sweeps so the experiment finishes in seconds;
	// used by tests and `fftbench -quick`. The full-size runs reproduce the
	// paper's exact scales (512³, up to 3072 ranks).
	Quick bool
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // e.g. "fig4"
	Title string // the paper's caption, abbreviated
	Run   func(w io.Writer, opts RunOptions) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes one experiment by ID.
func Run(id string, w io.Writer, opts RunOptions) error {
	e, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (try `fftbench -list`)", id)
	}
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	return e.Run(w, opts)
}

// newTable returns a tabwriter for aligned text tables.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}
