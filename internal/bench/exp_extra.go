package bench

import (
	"fmt"

	"repro/internal/apps/warpx"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mpisim"
)

func init() {
	register(Experiment{
		ID: "modelcheck",
		Title: "Validation of the Section III bandwidth model: predicted (eqs. 2–3) vs simulated " +
			"communication time across node counts",
		Run: runModelCheck,
	})
	register(Experiment{
		ID: "warpx",
		Title: "WarpX-style PSATD field update (Section IV.D): MPI_Alltoallw redistribution vs " +
			"tuned backends",
		Run: runWarpX,
	})
}

// runModelCheck compares the closed-form model against the simulator on the
// pencil FFT-grid exchanges (the part the equations describe). Model inputs
// follow the paper: B = 23.5 GB/s, L = 1 µs.
func runModelCheck() (Result, error) {
	grid := paperGrid
	n := grid[0] * grid[1] * grid[2]
	// The equations' B is the average bandwidth a process achieves; on
	// Summit the node's 23.5 GB/s is shared by its 6 ranks.
	mdl := machine.Summit()
	params := model.Params{
		Latency:   mdl.InterLatency,
		Bandwidth: mdl.NodeInjectionBW / float64(mdl.GPUsPerNode),
	}
	s := Section{Header: []string{"nodes", "GPUs", "P×Q", "model T_pencils", "simulated (pencil phases)", "ratio"}}
	for _, nodes := range nodeSweep(128) {
		ranks := 6 * nodes
		e := core.LookupTableIII(ranks)
		// Pencil-only plan (pencil input/output) isolates the two exchanges
		// equations (3) describe.
		cfg := core.Config{
			Global:   grid,
			InBoxes:  core.PencilBoxes(grid, 0, e.P, e.Q),
			OutBoxes: core.PencilBoxes(grid, 2, e.P, e.Q),
			Opts:     core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv, PQ: [2]int{e.P, e.Q}},
		}
		m := measure(machine.Summit(), ranks, true, cfg, 1, nil)
		pred := model.PencilTime(n, e.P, e.Q, params)
		s.Rows = append(s.Rows, []Cell{count(nodes), count(ranks), label(fmt.Sprintf("%d×%d", e.P, e.Q)),
			secs(pred), secs(m.CommPerFFT), num(m.CommPerFFT/pred, "%.2f")})
	}
	s.Notes = []string{
		"shape (asserted): ratio ≤ 1 at every node count, lowest on one node (intra-node",
		"links beat the model's shared-injection B); off-node traffic brings it to ≈1",
		"at 128 nodes (observed, not asserted)",
	}
	return Result{Sections: []Section{s}}, nil
}

func runWarpX() (Result, error) {
	ranks := 96
	grid := [3]int{256, 256, 256}
	steps := 5
	s := Section{Header: []string{"backend", "time/step", "speedup vs Alltoallw"}}
	var base float64
	for i, b := range []core.Backend{core.BackendAlltoallw, core.BackendAlltoallv, core.BackendAlltoall, core.BackendP2P} {
		world := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
		res := world.Run(func(c *mpisim.Comm) {
			sim, err := warpx.New(c, warpx.Config{Grid: grid, Phantom: true,
				FFT: core.Options{Decomp: core.DecompPencils, Backend: b}})
			if err == nil {
				err = sim.Run(steps)
			}
			if err != nil {
				panic(err)
			}
		})
		t := res.MaxClock / float64(steps)
		if i == 0 {
			base = t
		}
		s.Rows = append(s.Rows, []Cell{label(b.String()), secs(t), num(base/t, "%.2fx")})
	}
	s.Notes = []string{
		"shape (asserted): the Alltoallw path WarpX uses loses to tuned Alltoallv and to",
		"P2P — the paper's argument that such applications benefit from these",
		"optimizations; padded Alltoall loses to Alltoallw on brick I/O",
	}
	return Result{Sections: []Section{s}}, nil
}
