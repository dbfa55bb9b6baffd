package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/topo"
)

func init() {
	register(Experiment{
		ID: "placement",
		Title: "Topology regimes: block vs round-robin placement, best flat schedule vs the " +
			"node-aware two-level all-to-all, Summit/Spock/Frontier",
		Run: runPlacement,
	})
}

// flatAlgos are the single-level schedules the node-aware one competes with.
var flatAlgos = []core.CollAlgo{core.CollLinear, core.CollPairwise, core.CollRing, core.CollBruck}

// runPlacement returns the placement × schedule regime table: for each machine
// and grid, the best flat schedule and the node-aware two-level one under
// block and round-robin placement. Round-robin dealing spreads consecutive
// ranks across nodes, turning the library's mostly-intra-node pencil rows
// into inter-node exchanges — the regime where aggregating each node's
// traffic into one leader flow pays most.
func runPlacement() (Result, error) {
	machines := []*machine.Model{machine.Summit(), machine.Spock(), machine.Frontier()}
	grids := [][3]int{{32, 32, 32}, {128, 128, 128}, {256, 256, 256}}
	nodes := 8
	placements := []struct {
		name string
		p    topo.Placement
	}{
		{"block", topo.Block()},
		{"round-robin", topo.RoundRobin()},
	}
	s := Section{Header: []string{"machine", "grid", "placement", "best flat", "node-aware", "speedup"}}
	for _, m := range machines {
		ranks := nodes * m.GPUsPerNode
		for _, g := range grids {
			for _, pl := range placements {
				forward := func(a core.CollAlgo) (float64, error) {
					world := mpisim.NewWorld(m, ranks, mpisim.Options{GPUAware: true, Placement: pl.p})
					return forwardOnce(world, forcedAlgo(g, a), phantom, nil)
				}
				bestFlat := 0.0
				bestName := ""
				for _, a := range flatAlgos {
					t, err := forward(a)
					if err != nil {
						return Result{}, err
					}
					if bestFlat == 0 || t < bestFlat {
						bestFlat, bestName = t, a.String()
					}
				}
				na, err := forward(core.CollNodeAware)
				if err != nil {
					return Result{}, err
				}
				s.Rows = append(s.Rows, []Cell{label(m.Name), label(fmt.Sprintf("%d³", g[0])), label(pl.name),
					Cell{V: bestFlat, Text: fmt.Sprintf("%.1fµs (%s)", bestFlat*1e6, bestName)},
					micros(na), num(bestFlat/na, "%.2f×")})
			}
		}
	}
	return Result{Sections: []Section{s}}, nil
}
