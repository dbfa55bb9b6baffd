package tuning

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
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

// TestMeasureFollowsTheProtocol: Measure is the paper's protocol written out
// by hand — 2 warm-up forward calls, a barrier, count/2 forward and the rest
// inverse calls over batch phantom fields, this rank's clock, a barrier — to
// the bit of every returned clock.
func TestMeasureFollowsTheProtocol(t *testing.T) {
	const ranks, batch, count = 6, 2, 5
	cfg := core.Config{Global: [3]int{16, 16, 16}, Opts: core.Options{Decomp: core.DecompPencils}}
	type times struct{ start, end, per float64 }
	run := func(measure func(c *mpisim.Comm, p *core.Plan) times) []times {
		out := make([]times, ranks)
		mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true}).Run(func(c *mpisim.Comm) {
			p, err := core.NewPlan(c, cfg)
			if err != nil {
				panic(err)
			}
			out[c.Rank()] = measure(c, p)
		})
		return out
	}
	call := func(p *core.Plan, inverse bool) {
		fs := []*core.Field{core.NewPhantom(p.InBox()), core.NewPhantom(p.InBox())}
		exec := p.ForwardBatch
		if inverse {
			exec = p.InverseBatch
		}
		if err := exec(fs); err != nil {
			panic(err)
		}
	}
	want := run(func(c *mpisim.Comm, p *core.Plan) times {
		call(p, false)
		call(p, false)
		c.Barrier()
		t0 := c.Clock()
		for i := 0; i < count; i++ {
			call(p, i >= count/2)
		}
		end := c.Clock()
		c.Barrier()
		return times{t0, end, (c.Clock() - t0) / count}
	})
	got := run(func(c *mpisim.Comm, p *core.Plan) times {
		start, end, per, err := Measure(c, p, batch, count)
		if err != nil {
			panic(err)
		}
		return times{start, end, per}
	})
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("rank %d: Measure gives %+v, the protocol by hand %+v", r, got[r], want[r])
		}
	}
	if want[0].per <= 0 || want[0].end <= want[0].start {
		t.Fatalf("empty measurement %+v", want[0])
	}
}

// TestMeasureWorldPerTransform: at batch 1 and 2, MeasureWorld's time per
// transform is Measure's time per call over the batch, bit for bit, and the
// breakdown rows, wait included, add up to it; a configuration the library
// rejects comes back as the error.
func TestMeasureWorldPerTransform(t *testing.T) {
	const ranks = 6
	cfg := core.Config{Global: [3]int{16, 16, 16}, Opts: core.Options{Decomp: core.DecompPencils}}
	world := func() *mpisim.World {
		return mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true, Tracer: trace.New()})
	}
	for _, batch := range []int{1, 2} {
		var perCall float64
		world().Run(func(c *mpisim.Comm) {
			p, err := core.NewPlan(c, cfg)
			if err != nil {
				panic(err)
			}
			_, _, per, err := Measure(c, p, batch, Timed)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				perCall = per
			}
		})
		m, err := MeasureWorld(world(), cfg, batch, Timed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := perCall / float64(batch); m.TotalPerFFT != want || want <= 0 {
			t.Errorf("batch %d: %g s per transform, want the per-call %g s over the batch: %g s", batch, m.TotalPerFFT, perCall, want)
		}
		names := make([]string, 0, len(m.Breakdown))
		for name := range m.Breakdown {
			names = append(names, name)
		}
		sort.Strings(names)
		var sum float64
		for _, name := range names {
			sum += m.Breakdown[name]
		}
		if _, ok := m.Breakdown["wait"]; !ok || len(names) < 3 || math.Abs(sum-m.TotalPerFFT) > 1e-12*m.TotalPerFFT {
			t.Errorf("batch %d: breakdown %v adds up to %g s, want the %g s per transform", batch, m.Breakdown, sum, m.TotalPerFFT)
		}
	}
	if _, err := MeasureWorld(world(), core.Config{Global: [3]int{0, 0, 0}}, 1, Timed, nil); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("a zero grid gives %v, want ErrBadConfig", err)
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
	// planTime measures a plan built from cfg.
	planTime := func(cfg core.Config) float64 {
		var dt float64
		cfg.Opts.Decomp, cfg.Opts.Backend = cand.Decomp, cand.Backend
		mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true}).Run(func(c *mpisim.Comm) {
			p, err := core.NewPlan(c, cfg)
			if err != nil {
				panic(err)
			}
			_, _, per, err := Measure(c, p, 1, Timed)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				dt = per
			}
		})
		return dt
	}
	tuned := func(cfg core.Config) float64 {
		var dt float64
		mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true}).Run(func(c *mpisim.Comm) {
			rs, err := Tune(c, cfg, []Candidate{cand}, Options{})
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
			rs, err := Tune(c, cfg, cands, Options{})
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				r = rs[0]
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
		rs, err := Tune(c, core.Config{Global: [3]int{32, 32, 32}}, cands, Options{})
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
	if results[0].Backend == core.BackendAlltoallw {
		t.Error("Alltoallw should not be the tuned winner on a Summit-like stack")
	}
}

func TestTuneMeasureCap(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	var results []Result
	w.Run(func(c *mpisim.Comm) {
		rs, err := Tune(c, core.Config{Global: [3]int{16, 16, 16}}, DefaultCandidates(),
			Options{Measure: 3})
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

// TestTuneDropsRejectedCandidates: a caller's compressed wire rules out the
// backend without pack kernels (Alltoallw), so Tune measures every other
// candidate and drops those; a configuration every candidate rejects is an
// error.
func TestTuneDropsRejectedCandidates(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true})
	var results []Result
	var allErr error
	w.Run(func(c *mpisim.Comm) {
		cfg := core.Config{Global: [3]int{8, 8, 8}, Opts: core.Options{Comm: core.CommConfig{Wire: core.WireFp32}}}
		rs, err := Tune(c, cfg, DefaultCandidates(), Options{})
		if err != nil {
			panic(err)
		}
		cfg.Opts.Comm.Wire = core.WirePrecision(9)
		_, err = Tune(c, cfg, DefaultCandidates(), Options{})
		if c.Rank() == 0 {
			results, allErr = rs, err
		}
	})
	want := 0
	for _, cand := range DefaultCandidates() {
		if cand.Backend != core.BackendAlltoallw {
			want++
		}
	}
	if len(results) != want {
		t.Errorf("%d results, want the %d candidates that run a compressed wire", len(results), want)
	}
	for _, r := range results {
		if r.Backend == core.BackendAlltoallw || r.MeasuredSec <= 0 {
			t.Errorf("result %v measured %g s", r.Candidate, r.MeasuredSec)
		}
	}
	if !errors.Is(allErr, core.ErrBadConfig) {
		t.Errorf("a wire no candidate runs: err = %v, want ErrBadConfig", allErr)
	}
}

// TestTuneKeepsSlabsUnderACallerPQ: a caller's PQ fixes the pencil
// candidates' grid; a slab candidate has none and runs without it, so every
// candidate is measured and none is dropped as a rejected configuration.
func TestTuneKeepsSlabsUnderACallerPQ(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true})
	var results []Result
	w.Run(func(c *mpisim.Comm) {
		cfg := core.Config{Global: [3]int{8, 8, 8}, Opts: core.Options{PQ: [2]int{1, 4}}}
		rs, err := Tune(c, cfg, DefaultCandidates(), Options{})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			results = rs
		}
	})
	slabs := 0
	for _, r := range results {
		if r.MeasuredSec <= 0 {
			t.Errorf("result %v measured %g s", r.Candidate, r.MeasuredSec)
		}
		if r.Decomp == core.DecompSlabs {
			slabs++
		}
	}
	if len(results) != len(DefaultCandidates()) || slabs == 0 {
		t.Errorf("%d results (%d slab), want all %d candidates measured", len(results), slabs, len(DefaultCandidates()))
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
			DefaultCandidates()[:6], Options{})
		if err != nil {
			panic(err)
		}
		winners[c.Rank()] = rs[0].String()
	})
	for r := 1; r < 6; r++ {
		if winners[r] != winners[0] {
			t.Errorf("rank %d winner %q != rank 0 winner %q", r, winners[r], winners[0])
		}
	}
}
