package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func init() {
	register(Experiment{
		ID: "exchange",
		Title: "All-to-all schedule regimes: forced linear/pairwise/ring/Bruck/node-aware vs the " +
			"AlgoAuto per-phase selection, GPU-aware Summit",
		Run: runExchangeAlgos,
	})
}

// runExchangeAlgos returns the regime table AlgoAuto selects from: at small
// grids the overhead/latency-bound exchanges favour the log-step and streamed
// schedules, at large grids bandwidth dominates and the streamed ring and the
// two-level schedule hold; the naive linear loop trails everywhere the
// exchange is dense. AlgoAuto chooses per phase, so it may undercut every
// forced column; auto/best holds it against the best of them.
func runExchangeAlgos() (Result, error) {
	ranks := 64
	grids := [][3]int{{32, 32, 32}, {64, 64, 64}, {128, 128, 128}, {256, 256, 256}}
	algos := []core.CollAlgo{core.CollLinear, core.CollPairwise, core.CollRing, core.CollBruck, core.CollNodeAware}
	world := func() *mpisim.World {
		return mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	}
	s := Section{Header: []string{"grid", "linear", "pairwise", "ring", "bruck", "node-aware", "auto",
		"auto vs linear", "auto/best", "auto picks"}}
	for _, g := range grids {
		row := []Cell{label(fmt.Sprintf("%d³", g[0]))}
		var linear, best float64
		for _, a := range algos {
			t, err := forwardOnce(world(), forcedAlgo(g, a), phantom, nil)
			if err != nil {
				return Result{}, err
			}
			if a == core.CollLinear {
				linear, best = t, t
			}
			best = min(best, t)
			row = append(row, micros(t))
		}
		var phases []core.CommPhase // rank 0's view of what auto resolved to
		auto, err := forwardOnce(world(), forcedAlgo(g, core.CollAuto), phantom, func(rank int, p *core.Plan, _ *core.Field) {
			if rank == 0 {
				phases = p.CommPhases()
			}
		})
		if err != nil {
			return Result{}, err
		}
		picks := make([]string, 0, len(phases))
		for _, ph := range phases {
			if ph.GroupSize > 1 {
				picks = append(picks, fmt.Sprintf("%s=%s", ph.Label, ph.Algo))
			}
		}
		s.Rows = append(s.Rows, append(row, micros(auto), num(linear/auto, "%.2f×"), num(auto/best, "%.3f"),
			label(strings.Join(picks, " "))))
	}
	return Result{Sections: []Section{s}}, nil
}
