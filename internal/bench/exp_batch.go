package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/machine"
)

func init() {
	register(Experiment{
		ID: "fig13",
		Title: "Batched 64³ 3-D FFT on NVIDIA (cuFFT, 6 MPI/node) and AMD (rocFFT, 4 MPI/node): " +
			">2× per-transform speedup from batching",
		Run: runFig13,
	})
	register(Experiment{
		ID:    "shrink",
		Title: "Ablation: FFT grid shrinking for small transforms on many ranks (Algorithm 1, line 2)",
		Run:   runShrink,
	})
}

// batchedPoint returns the per-transform time of a batch of nb transforms on
// the communication profile comm.
func batchedPoint(mdl *machine.Model, ranks, nb int, global [3]int, comm core.CommConfig) float64 {
	cfg := core.Config{Global: global,
		Opts: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv, Comm: comm}}
	return measure(mdl, ranks, true, cfg, nb, nil).TotalPerFFT
}

// runFig13 reports batch_speedup on the paper's baseline profile: the
// smallest speedup(max batch) over every system and node row. The tuned
// profile's speedup prints beside it.
func runFig13() (Result, error) {
	global := [3]int{64, 64, 64}
	batches := []int{1, 2, 4, 8, 16}
	type system struct {
		label string
		mdl   *machine.Model
		nodes []int
	}
	systems := []system{
		{"Summit (cuFFT, 6 MPI/node)", machine.Summit(), []int{1, 2, 4}},
		{"Spock (rocFFT, 4 MPI/node)", machine.Spock(), []int{1, 2, 4}},
	}
	header := []string{"nodes", "GPUs"}
	for _, nb := range batches {
		header = append(header, fmt.Sprintf("batch=%d", nb))
	}
	header = append(header, "speedup(max batch)", "speedup (tuned)")
	var res Result
	minSpeedup := math.Inf(1)
	for _, sys := range systems {
		s := Section{Lead: []string{fmt.Sprintf("-- %s --", sys.label)}, Header: header}
		for _, nodes := range sys.nodes {
			ranks := sys.mdl.GPUsPerNode * nodes
			row := []Cell{count(nodes), count(ranks)}
			var first, last float64
			for i, nb := range batches {
				t := batchedPoint(sys.mdl, ranks, nb, global, paperBaseline)
				if i == 0 {
					first = t
				}
				last = t
				row = append(row, secs(t))
			}
			tuned := batchedPoint(sys.mdl, ranks, batches[0], global, core.CommConfig{}) /
				batchedPoint(sys.mdl, ranks, batches[len(batches)-1], global, core.CommConfig{})
			s.Rows = append(s.Rows, append(row, num(first/last, "%.2fx"), num(tuned, "%.2fx")))
			minSpeedup = min(minSpeedup, first/last)
		}
		res.Sections = append(res.Sections, s)
	}
	res.Sections[len(res.Sections)-1].Notes = []string{
		"expected shape: per-transform cost inside a batch ≥2× cheaper than isolated",
		"transforms (message fusion + compute/communication overlap); the advantage",
		"shrinks for large grids where communication dwarfs computation;",
		"times on the paper's baseline (vendor MPI_Alltoallv, one chunk), tuned speedup beside",
	}
	res.Scalars = map[string]float64{"batch_speedup": minSpeedup}
	return res, nil
}

// shrinkRanks and shrinkThreshold are the shrink ablation's world size and
// the ShrinkThreshold of its shrunk plans.
const shrinkRanks, shrinkThreshold = 96, 2048

// shrinkConfig is the shrink ablation's n³ pencil plan, on the full grid for a
// zero threshold.
func shrinkConfig(n, threshold int) core.Config {
	return core.Config{Global: [3]int{n, n, n},
		Opts: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv,
			ShrinkThreshold: threshold}}
}

func runShrink() (Result, error) {
	s := Section{Header: []string{"grid", "ranks", "T(full grid)", "T(shrunk)", "active ranks", "speedup"}}
	for _, n := range []int{16, 32, 64} {
		run := func(threshold int) float64 {
			return measure(machine.Summit(), shrinkRanks, true, shrinkConfig(n, threshold), 1, nil).TotalPerFFT
		}
		full, shrunk := run(0), run(shrinkThreshold)
		// core.NewPlan's rule; TestShrinkShape holds it to the plan's PencilGrid.
		active := min((n*n*n+shrinkThreshold-1)/shrinkThreshold, shrinkRanks)
		s.Rows = append(s.Rows, []Cell{label(fmt.Sprintf("%d³", n)), count(shrinkRanks),
			secs(full), secs(shrunk), count(active), num(full/shrunk, "%.2fx")})
	}
	s.Notes = []string{
		"shape (asserted): a 16³ transform, far too small for 96 ranks, runs faster on a",
		"sub-grid than spread over every rank; 64³ fills the full grid (no-op). At 32³ the",
		"default schedules make the sparse pre/post remaps cost more (0.94×, observed)",
	}
	return Result{Sections: []Section{s}}, nil
}
