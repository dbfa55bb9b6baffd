// Package bench regenerates every table and figure of the paper's evaluation
// (Section II–IV) at the paper's scales (512³, up to 3072 ranks): each
// experiment runs the relevant workloads on the simulated machine and returns
// the same rows/series the paper reports, in virtual time, as a Result —
// typed table cells plus named scalars such as Fig. 11's GPU-aware penalty.
// One renderer prints a Result as text, for this package and every command:
// Render with the experiment's banner, RenderBody without it for cmd/fftsim
// and cmd/fftplan, which build a Result of their own; nothing else writes a
// result. The cmd/fftbench CLI is a loop of Run → Render, and
// experiments_full.txt at the repository root is its output, which the
// package's tests compare against; host wall-clock and memory are measured by
// the repository benchmark (`go run ./benchmark`), not here.
package bench

import (
	"fmt"
	"sort"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string // e.g. "fig4"
	Title string // the paper's caption, abbreviated
	Run   func() (Result, error)
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

// Run executes one experiment by ID at full size. It is the package's one
// panic boundary: runners panic on a bad configuration (mpisim.World.Run
// re-raises a rank's panic), and Run returns that as an error.
func Run(id string) (res Result, err error) {
	e, ok := Lookup(id)
	if !ok {
		return Result{}, fmt.Errorf("bench: unknown experiment %q (try `fftbench -list`)", id)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("bench: %s: run failed: %v", id, p)
		}
	}()
	if res, err = e.Run(); err != nil {
		err = fmt.Errorf("bench: %s: %w", id, err)
	}
	return res, err
}
