package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// workload is one named set of inputs. Names are stable: later issues cite
// them. Shapes and rank counts never scale with run length; -quick swaps in
// a small stand-in of the same structure for tests.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	// world is set for the three world-based workloads, serve for the fourth.
	world func(quick bool) *worldSpec
	serve func(quick bool) *serveSpec
}

var workloads = []workload{
	{
		name:  "dense128_r64",
		why:   "payload-bound: FFT kernels and pack/unpack are ~97 % of CPU, transport ~2 %; kernel and pack work must show here, transport work must not",
		world: dense128,
	},
	{
		name:  "scale512_r768_phantom",
		why:   "zero payload work by construction: exchange rendezvous, p-length per-call vectors and GC; the paper-scale proxy that moves with plan-state and schedule work only",
		world: scale512,
	},
	{
		name:  "altpaths64_r24",
		why:   "the executors dense128_r64 never touches: per-entry pipelined Ialltoallv and the P2P real-to-complex plan, host-staged; catches a win elsewhere that costs these paths",
		world: altpaths64,
	},
	{
		name:  "serve_mixed_r8",
		why:   "scheduler and serving layers end to end: closed loop of 8 clients on two shapes through coalescing, the plan cache, scatter/gather and per-call exchange set-up",
		serve: serveMixed,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func cube(n int) [3]int { return [3]int{n, n, n} }

// c2cProg is the rank program of a complex plan driven through
// ForwardBatch/InverseBatch with one field (workloads 1 and 2).
func c2cProg(c *mpisim.Comm, cfg core.Config, phantom bool, seed int64) (*rankProg, error) {
	plan, err := core.NewPlan(c, cfg)
	if err != nil {
		return nil, err
	}
	fields := make([]*core.Field, 1)
	prog := &rankProg{exchanges: plan.Exchanges(), phases: phasesOf(plan)}
	prog.fill = func() {
		if phantom {
			fields[0] = core.NewPhantom(plan.InBox())
			return
		}
		fields[0] = core.NewField(plan.InBox())
		fillComplex(fields[0].Data, seed, c.Rank(), 0)
	}
	prog.steps = []step{
		{name: "forward", transforms: 1, calls: []call{{"Plan.ForwardBatch", func() error { return plan.ForwardBatch(fields) }}}},
		{name: "inverse", transforms: 1, calls: []call{{"Plan.InverseBatch", func() error { return plan.InverseBatch(fields) }}}},
	}
	if !phantom {
		prog.relErr = func() float64 { return relErrComplex(fields[0].Data, seed, c.Rank(), 0) }
	}
	prog.describe = func() ([]pipeline, error) {
		p, err := c2cPipeline("c2c", plan, c.Size(), cfg, phantom, 1, exchAlltoallv, c.GPUAware(), 1)
		return []pipeline{p}, err
	}
	return prog, nil
}

// dense128: Summit, 64 ranks, GPU-aware, 128³, pencils, Alltoallv, comm
// auto, real payloads, batch 1.
func dense128(quick bool) *worldSpec {
	ranks, n, iters := 64, 128, 40
	if quick {
		ranks, n, iters = 8, 32, 3
	}
	cfg := core.Config{Global: cube(n), Opts: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv}}
	return &worldSpec{
		ranks: ranks, gpuAware: true, fixedIters: iters,
		build: func(c *mpisim.Comm, seed int64) (*rankProg, error) {
			return c2cProg(c, cfg, false, seed)
		},
		refCheck: func(seed int64) (float64, error) {
			small := cfg
			small.Global = cube(16)
			return refCheckC2C(ranks, true, small, seed, (*core.Plan).Forward)
		},
	}
}

// scale512: Summit, 768 ranks (128 nodes), GPU-aware, 512³, the Table III
// bricks and (P,Q) for 768 GPUs, pencils, Alltoallv, phantom fields.
func scale512(quick bool) *worldSpec {
	ranks, n, iters := 768, 512, 5
	if quick {
		ranks, n, iters = 24, 32, 3
	}
	e := core.LookupTableIII(ranks)
	cfg := core.Config{
		Global:   cube(n),
		InBoxes:  e.InOut.Decompose(cube(n)),
		OutBoxes: e.InOut.Decompose(cube(n)),
		Opts:     core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv, PQ: [2]int{e.P, e.Q}},
	}
	return &worldSpec{
		ranks: ranks, gpuAware: true, fixedIters: iters,
		build: func(c *mpisim.Comm, seed int64) (*rankProg, error) {
			return c2cProg(c, cfg, true, seed)
		},
	}
}

// altpaths64: Summit, 24 ranks (4 nodes), host-staged (GPU-aware off), 64³,
// real payloads, batch 4. One cycle is Plan.ForwardPipelined +
// InversePipelined on an Alltoallv plan, a barrier, then
// RealPlan.ForwardBatch + InverseBatch on a P2P real plan: 16 single-grid
// transforms.
func altpaths64(quick bool) *worldSpec {
	const batch = 4
	ranks, n, iters := 24, 64, 20
	if quick {
		ranks, n, iters = 8, 16, 3
	}
	cfg := core.Config{Global: cube(n), Opts: core.Options{Decomp: core.DecompPencils, Backend: core.BackendAlltoallv}}
	rcfg := core.RealConfig{Global: cube(n), Opts: core.Options{Backend: core.BackendP2P}}
	return &worldSpec{
		ranks: ranks, gpuAware: false, fixedIters: iters,
		build: func(c *mpisim.Comm, seed int64) (*rankProg, error) {
			plan, err := core.NewPlan(c, cfg)
			if err != nil {
				return nil, err
			}
			rplan, err := core.NewRealPlan(c, rcfg)
			if err != nil {
				return nil, err
			}
			fields := make([]*core.Field, batch)
			rfs := make([]*core.RealField, batch)
			var spec []*core.Field
			prog := &rankProg{exchanges: plan.Exchanges(), phases: phasesOf(plan)}
			prog.fill = func() {
				for i := range fields {
					fields[i] = core.NewField(plan.InBox())
					fillComplex(fields[i].Data, seed, c.Rank(), i)
					rfs[i] = core.NewRealField(rplan.InBox())
					fillReal(rfs[i].Data, seed, c.Rank(), batch+i)
				}
			}
			prog.steps = []step{
				{name: "pipelined", metric: "core.pipelined_ms_per_cycle", transforms: 2 * batch, calls: []call{
					{"Plan.ForwardPipelined", func() error { return plan.ForwardPipelined(fields) }},
					{"Plan.InversePipelined", func() error { return plan.InversePipelined(fields) }},
				}},
				{name: "real", metric: "core.real_ms_per_cycle", transforms: 2 * batch, calls: []call{
					{"RealPlan.ForwardBatch", func() (err error) { spec, err = rplan.ForwardBatch(rfs); return err }},
					// The inverse returns fresh real fields over InBoxes: the
					// next cycle's input.
					{"RealPlan.InverseBatch", func() (err error) { rfs, err = rplan.InverseBatch(spec); return err }},
				}},
			}
			prog.relErr = func() float64 {
				worst := 0.0
				for i := range fields {
					worst = math.Max(worst, relErrComplex(fields[i].Data, seed, c.Rank(), i))
					worst = math.Max(worst, relErrReal(rfs[i].Data, seed, c.Rank(), batch+i))
				}
				return worst
			}
			prog.describe = func() ([]pipeline, error) {
				p, err := c2cPipeline("pipelined", plan, c.Size(), cfg, false, batch, exchIalltoallv, false, 0.5)
				return []pipeline{p, r2cPipeline("real", c.Size(), rcfg.Global, batch, false, 0.5)}, err
			}
			return prog, nil
		},
		refCheck: func(seed int64) (float64, error) {
			small, rsmall := cfg, rcfg
			small.Global, rsmall.Global = cube(16), cube(16)
			e1, err := refCheckC2C(ranks, false, small, seed, func(p *core.Plan, f *core.Field) error {
				return p.ForwardPipelined([]*core.Field{f})
			})
			if err != nil {
				return 0, err
			}
			e2, err := refCheckR2C(ranks, rsmall, seed)
			return math.Max(e1, e2), err
		},
	}
}

// runSmall runs f on every rank of a small untimed world and reports a
// rank's failure as an error.
func runSmall(ranks int, gpuAware bool, f func(c *mpisim.Comm) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("reference run: %v", p)
		}
	}()
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: gpuAware})
	out := w.Run(func(c *mpisim.Comm) {
		if err := f(c); err != nil {
			c.Fail(fmt.Errorf("rank %d: %w", c.Rank(), err))
		}
	})
	return out.Err
}

// refCheckC2C runs forward on a small grid with the workload's plan
// configuration and compares the gathered spectrum with the O(N²) DFT.
func refCheckC2C(ranks int, gpuAware bool, cfg core.Config, seed int64, forward func(*core.Plan, *core.Field) error) (float64, error) {
	n := cfg.Global
	full := tensor.FullBox(n)
	x := make([]complex128, full.Volume())
	fillComplex(x, seed, -1, 0)
	got := make([]complex128, len(x))
	err := runSmall(ranks, gpuAware, func(c *mpisim.Comm) error {
		plan, err := core.NewPlan(c, cfg)
		if err != nil {
			return err
		}
		f := core.NewField(plan.InBox())
		tensor.Pack(x, full, f.Box, f.Data)
		if err := forward(plan, f); err != nil {
			return err
		}
		tensor.Unpack(got, full, f.Box, f.Data) // out boxes are disjoint
		return nil
	})
	if err != nil {
		return 0, err
	}
	return maxDiffRatio(got, dft.Transform3D(x, n[0], n[1], n[2])), nil
}

// refCheckR2C is refCheckC2C for the real plan: the half spectrum must match
// the k2 <= N2/2 part of the complex DFT of the real input.
func refCheckR2C(ranks int, cfg core.RealConfig, seed int64) (float64, error) {
	n := cfg.Global
	half := [3]int{n[0], n[1], n[2]/2 + 1}
	full, fullHalf := tensor.FullBox(n), tensor.FullBox(half)
	x := make([]float64, full.Volume())
	fillReal(x, seed, -1, 1)
	got := make([]complex128, fullHalf.Volume())
	err := runSmall(ranks, false, func(c *mpisim.Comm) error {
		plan, err := core.NewRealPlan(c, cfg)
		if err != nil {
			return err
		}
		rf := core.NewRealField(plan.InBox())
		tensor.Pack(x, full, rf.Box, rf.Data)
		spec, err := plan.Forward(rf)
		if err != nil {
			return err
		}
		tensor.Unpack(got, fullHalf, spec.Box, spec.Data)
		return nil
	})
	if err != nil {
		return 0, err
	}
	xc := make([]complex128, len(x))
	for i, v := range x {
		xc[i] = complex(v, 0)
	}
	ref := dft.Transform3D(xc, n[0], n[1], n[2])
	want := make([]complex128, len(got))
	tensor.Pack(ref, full, fullHalf, want)
	return maxDiffRatio(got, want), nil
}
