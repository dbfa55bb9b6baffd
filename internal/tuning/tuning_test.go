package tuning

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func TestDefaultCandidatesCoverTheSweep(t *testing.T) {
	cands := DefaultCandidates()
	// 2 decompositions × 2 layouts × (4 non-Alltoallv backends + Alltoallv
	// in each of auto/pairwise/ring/bruck/node-aware).
	if len(cands) != 2*2*(4+5) {
		t.Fatalf("got %d candidates, want 36", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.String()] {
			t.Errorf("duplicate candidate %v", c)
		}
		seen[c.String()] = true
	}
}

// TestTuneHonoursCallerConfig: a candidate sets decomposition, backend,
// layout and schedule, and keeps everything else the caller configured. On a
// small grid over many ranks a shrink threshold changes the plan, as does a
// compressed wire; each measured time must be that of the caller's plan.
func TestTuneHonoursCallerConfig(t *testing.T) {
	const ranks = 12
	global := [3]int{8, 8, 8}
	cand := Candidate{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv}
	opts := Options{Warmup: 1, Iters: 2}
	// planTime runs the measurement protocol on a plan built from cfg.
	planTime := func(cfg core.Config) float64 {
		var dt float64
		mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true}).Run(func(c *mpisim.Comm) {
			cfg.Opts.Decomp, cfg.Opts.Backend = cand.Decomp, cand.Backend
			p, err := core.NewPlan(c, cfg)
			if err != nil {
				panic(err)
			}
			if err := p.Forward(core.NewPhantom(p.InBox())); err != nil {
				panic(err)
			}
			c.Barrier()
			t0 := c.Clock()
			if err := p.Forward(core.NewPhantom(p.InBox())); err != nil {
				panic(err)
			}
			if err := p.Inverse(core.NewPhantom(p.InBox())); err != nil {
				panic(err)
			}
			c.Barrier()
			if c.Rank() == 0 {
				dt = (c.Clock() - t0) / 2
			}
		})
		return dt
	}
	tuned := func(cfg core.Config) float64 {
		var dt float64
		mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true}).Run(func(c *mpisim.Comm) {
			rs, err := Tune(c, cfg, []Candidate{cand}, opts)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				dt = rs[0].MeasuredSec
			}
		})
		return dt
	}
	plain := planTime(core.Config{Global: global})
	for name, o := range map[string]core.Options{
		"shrink": {ShrinkThreshold: 128},
		"fp16":   {Comm: core.CommConfig{Wire: core.WireFp16}},
	} {
		cfg := core.Config{Global: global, Opts: o}
		want := planTime(cfg)
		if want == plain {
			t.Fatalf("%s: the caller's option does not change the plan's time (%g)", name, want)
		}
		if got := tuned(cfg); got != want {
			t.Errorf("%s: Tune measured %g, the caller's plan takes %g (unconfigured %g)", name, got, want, plain)
		}
	}
}

// TestTuneCompressedWireWins: on a staged (non-GPU-aware) exchange-dominated
// shape, tuning a configuration that ships fp32 or fp16 on the wire must find
// a faster winner than the same sweep at fp64 — the point of compressing.
func TestTuneCompressedWireWins(t *testing.T) {
	var cands []Candidate
	for _, d := range []core.Decomposition{core.DecompSlabs, core.DecompPencils} {
		for _, b := range []core.Backend{core.BackendAlltoallv, core.BackendP2P} {
			cands = append(cands, Candidate{Decomp: d, Backend: b})
		}
	}
	best := func(w core.WirePrecision) Result {
		var r Result
		mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{}).Run(func(c *mpisim.Comm) {
			cfg := core.Config{Global: [3]int{64, 64, 64}, Opts: core.Options{Comm: core.CommConfig{Wire: w}}}
			rs, err := Tune(c, cfg, cands, Options{Warmup: 1, Iters: 2})
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				r = Best(rs)
			}
		})
		return r
	}
	full := best(core.WireFp64)
	if full.MeasuredSec <= 0 {
		t.Fatal("fp64 winner was not measured")
	}
	prev := full
	for _, w := range []core.WirePrecision{core.WireFp32, core.WireFp16} {
		r := best(w)
		if r.MeasuredSec <= 0 || r.MeasuredSec >= prev.MeasuredSec {
			t.Errorf("%v winner %v takes %g s, not faster than %g s of the wider wire", w, r.Candidate, r.MeasuredSec, prev.MeasuredSec)
		}
		prev = r
	}
}

func TestPredictOrdersSlabsVsPencils(t *testing.T) {
	// At 6 ranks on 512³ the model prefers slabs (Fig. 5 left region).
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		slab := Predict(c, [3]int{512, 512, 512}, Candidate{Decomp: core.DecompSlabs})
		pencil := Predict(c, [3]int{512, 512, 512}, Candidate{Decomp: core.DecompPencils})
		if slab >= pencil {
			t.Errorf("slab prediction %g should beat pencil %g at 6 ranks", slab, pencil)
		}
	})
}

func TestTuneMeasuresAndSorts(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	cands := []Candidate{
		{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv},
		{Decomp: core.DecompPencils, Backend: core.BackendAlltoallw},
		{Decomp: core.DecompSlabs, Backend: core.BackendAlltoallv},
	}
	var results []Result
	w.Run(func(c *mpisim.Comm) {
		rs, err := Tune(c, core.Config{Global: [3]int{32, 32, 32}}, cands, Options{Warmup: 1, Iters: 2})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			results = rs
		}
	})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.MeasuredSec <= 0 {
			t.Errorf("candidate %v not measured", r.Candidate)
		}
		if i > 0 && results[i-1].MeasuredSec > r.MeasuredSec {
			t.Error("results not sorted by measured time")
		}
	}
	// Alltoallw on device buffers must not win (Fig. 2).
	if Best(results).Backend == core.BackendAlltoallw {
		t.Error("Alltoallw should not be the tuned winner on a Summit-like stack")
	}
}

func TestTuneMeasureCap(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	var results []Result
	w.Run(func(c *mpisim.Comm) {
		rs, err := Tune(c, core.Config{Global: [3]int{16, 16, 16}}, DefaultCandidates(),
			Options{Warmup: 1, Iters: 2, Measure: 3})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			results = rs
		}
	})
	measured := 0
	for _, r := range results {
		if r.MeasuredSec > 0 {
			measured++
		}
	}
	if measured != 3 {
		t.Errorf("measured %d candidates, want 3", measured)
	}
	// Measured candidates must sort before unmeasured ones.
	for i := 0; i < measured; i++ {
		if results[i].MeasuredSec == 0 {
			t.Error("unmeasured candidate sorted before measured ones")
		}
	}
}

func TestTuneErrors(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		if _, err := Tune(c, core.Config{Global: [3]int{4, 4, 4}}, nil, Options{}); err == nil {
			t.Error("expected error for empty candidate list")
		}
	})
}

func TestTuneDeterministicAcrossRanks(t *testing.T) {
	// All ranks must agree on the winner (they run identical logic on
	// identical virtual clocks).
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	winners := make([]string, 6)
	w.Run(func(c *mpisim.Comm) {
		rs, err := Tune(c, core.Config{Global: [3]int{16, 16, 16}},
			DefaultCandidates()[:6], Options{Warmup: 1, Iters: 2})
		if err != nil {
			panic(err)
		}
		winners[c.Rank()] = Best(rs).String()
	})
	for r := 1; r < 6; r++ {
		if winners[r] != winners[0] {
			t.Errorf("rank %d winner %q != rank 0 winner %q", r, winners[r], winners[0])
		}
	}
}
