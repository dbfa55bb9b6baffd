package bench

import (
	"flag"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/topo"
)

// sweep widens TestAutoAgainstForced from its 160 gated configurations to the
// 768-configuration sweep tabulated in EXPERIMENTS.md at 0cef092 ("One
// collective cost engine") and prints one SWEEP row per configuration, so two trees can be
// compared configuration by configuration:
//
//	go test ./internal/bench -run TestAutoAgainstForced -sweep -v | grep SWEEP
var sweep = flag.Bool("sweep", false, "TestAutoAgainstForced: run and print the 768-configuration sweep")

// autoConfig is one phantom Forward whose CollAuto makespan is held against
// the five forced schedules.
type autoConfig struct {
	m      *machine.Model
	ranks  int
	n      int
	aware  bool
	place  string // block | round-robin
	decomp core.Decomposition
}

func (c autoConfig) String() string {
	aware := "aware"
	if !c.aware {
		aware = "staged"
	}
	return fmt.Sprintf("%s %d %d %s %s %v", c.m.Name, c.ranks, c.n, aware, c.place, c.decomp)
}

// forcedAlgo is the Alltoallv plan config with the collective schedule forced.
func forcedAlgo(grid [3]int, algo core.CollAlgo) core.Config {
	return core.Config{Global: grid, Opts: core.Options{
		Backend: core.BackendAlltoallv,
		Comm:    core.CommConfig{Algo: algo},
	}}
}

// forward runs the configuration once under the given schedule choice.
func (c autoConfig) forward(a core.CollAlgo) (float64, error) {
	place := topo.Block()
	if c.place == "round-robin" {
		place = topo.RoundRobin()
	}
	w := mpisim.NewWorld(c.m, c.ranks, mpisim.Options{GPUAware: c.aware, Placement: place})
	cfg := forcedAlgo([3]int{c.n, c.n, c.n}, a)
	cfg.Opts.Decomp = c.decomp
	return forwardOnce(w, cfg, phantom)
}

func autoConfigs(ranks, grids []int) []autoConfig {
	var out []autoConfig
	for _, m := range []*machine.Model{machine.Summit(), machine.Spock()} {
		for _, r := range ranks {
			for _, n := range grids {
				for _, aware := range []bool{true, false} {
					for _, place := range []string{"block", "round-robin"} {
						for _, d := range []core.Decomposition{core.DecompPencils, core.DecompAuto} {
							out = append(out, autoConfig{m, r, n, aware, place, d})
						}
					}
				}
			}
		}
	}
	return out
}

// TestAutoAgainstForced is the end-to-end gate on CollAuto: across machines,
// rank counts that fill nodes evenly and raggedly, latency- and
// bandwidth-bound grids, GPU-aware and staged transport, both placements and
// both decomposition choices, one transform under CollAuto must rarely lose to
// the best *single* schedule forced on every phase, never by much, and on
// average win — it may mix schedules per phase, a forced run may not. Selection
// prices each phase on an idle group, so a near-tie on a ragged node layout can
// still rank the wrong way in situ; the bounds leave room for exactly that (see
// EXPERIMENTS.md) and for nothing larger.
func TestAutoAgainstForced(t *testing.T) {
	cfgs := autoConfigs([]int{8, 16, 24, 48, 96}, []int{64, 256})
	minNoWorse, maxMean, maxRatio := 140, 1.000, 1.15
	switch {
	case *sweep:
		cfgs = autoConfigs([]int{6, 8, 12, 16, 24, 32, 36, 48, 64, 96, 128, 192}, []int{32, 64, 128, 256})
	case testing.Short():
		var third []autoConfig
		for i := 0; i < len(cfgs); i += 3 {
			third = append(third, cfgs[i])
		}
		minNoWorse = minNoWorse * len(third) / len(cfgs)
		cfgs = third
	}
	forced := []core.CollAlgo{core.CollLinear, core.CollPairwise, core.CollRing, core.CollBruck, core.CollNodeAware}

	type outcome struct {
		cfg   autoConfig
		ratio float64 // auto / best forced
		best  core.CollAlgo
	}
	outs := make([]outcome, 0, len(cfgs))
	for _, cfg := range cfgs {
		o := outcome{cfg: cfg}
		bt := 0.0
		row := ""
		for _, a := range forced {
			ft, err := cfg.forward(a)
			if err != nil {
				t.Fatalf("%v forced %v: %v", cfg, a, err)
			}
			if bt == 0 || ft < bt {
				bt, o.best = ft, a
			}
			row += fmt.Sprintf(" %.4f", ft*1e6)
		}
		auto, err := cfg.forward(core.CollAuto)
		if err != nil {
			t.Fatalf("%v auto: %v", cfg, err)
		}
		o.ratio = auto / bt
		outs = append(outs, o)
		if *sweep {
			fmt.Printf("SWEEP %v%s %.4f\n", cfg, row, auto*1e6)
		}
	}

	lost, over := 0, map[float64]int{1.01: 0, 1.05: 0, 1.10: 0}
	sum, worst := 0.0, 0.0
	for _, o := range outs {
		sum += o.ratio
		worst = max(worst, o.ratio)
		if o.ratio > 1 {
			lost++
		}
		for th := range over {
			if o.ratio > th {
				over[th]++
			}
		}
	}
	mean := sum / float64(len(outs))
	t.Logf("%d configs: auto slower than the best forced schedule on %d (> 1 %%: %d, > 5 %%: %d, > 10 %%: %d), max auto/best %.4f, mean %.4f",
		len(outs), lost, over[1.01], over[1.05], over[1.10], worst, mean)
	sort.SliceStable(outs, func(i, j int) bool { return outs[i].ratio > outs[j].ratio })
	for _, o := range outs[:5] {
		t.Logf("  auto/best %.4f  %v (best forced: %v)", o.ratio, o.cfg, o.best)
	}
	if *sweep {
		return // the sweep is a measurement; the gate is the 160-config table
	}
	if noWorse := len(outs) - lost; noWorse < minNoWorse {
		t.Errorf("auto is no slower than the best forced schedule on %d of %d configs, want ≥ %d", noWorse, len(outs), minNoWorse)
	}
	if mean > maxMean {
		t.Errorf("mean auto/best = %.4f, want ≤ %.3f", mean, maxMean)
	}
	if worst > maxRatio {
		t.Errorf("max auto/best = %.4f, want ≤ %.2f", worst, maxRatio)
	}
}
