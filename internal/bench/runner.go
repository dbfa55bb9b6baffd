package bench

import (
	"sort"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
	"repro/internal/tuning"
)

// newTracer makes the tracer of every measured run; tests wrap it to see the
// events the experiments record.
var newTracer = trace.New

// measure runs cfg on ranks GPUs of mdl, GPU-aware or host-staged, under the
// paper's protocol (tuning.MeasureWorld: 2 warm-up calls, then 4 forward and 4
// inverse, each call over batch fields) on a fresh traced world; unpruned,
// when non-nil, sees the whole trace first (the per-call series of Figs. 2/3
// include the warm-up). A bad configuration panics (Run recovers it). All
// payloads are phantom: timing is identical to real payloads (a tested
// property) and paper-scale grids need no memory.
func measure(mdl *machine.Model, ranks int, aware bool, cfg core.Config, batch int, unpruned func(*trace.Tracer)) tuning.Measurement {
	w := mpisim.NewWorld(mdl, ranks, mpisim.Options{GPUAware: aware, Tracer: newTracer()})
	m, err := tuning.MeasureWorld(w, cfg, batch, tuning.Timed, unpruned)
	if err != nil {
		panic(err)
	}
	return m
}

// forwardOnce creates cfg's plan on every rank of w, runs one Forward and
// returns the virtual makespan — the single-shot measurement of integrity's
// tables and of the schedule tests, which compare configurations rather than
// follow the paper's averaged protocol. The phantom seed transforms size-only
// fields (timing is identical to real payloads, a tested property); any other
// seed fills rank r's field from seed+r, for runs where the bits matter (an
// injected flip must land on data).
func forwardOnce(w *mpisim.World, cfg core.Config, seed int64) (float64, error) {
	res := w.Run(func(c *mpisim.Comm) {
		p, err := core.NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		defer p.Close()
		f := core.NewPhantom(p.InBox())
		if seed != phantom {
			f = core.NewField(p.InBox())
			f.FillRandom(seed + int64(c.Rank()))
		}
		if err := p.Forward(f); err != nil {
			panic(err)
		}
	})
	return res.MaxClock, res.Err
}

// phantom is forwardOnce's seed for size-only payloads.
const phantom = 0

// tableIIIConfig builds the plan config of the strong-scaling experiments:
// brick input/output per Table III, and its pencil FFT grid (P, Q) for the
// decompositions that have one (pencils, and auto, which it steers).
func tableIIIConfig(ranks int, global [3]int, opts core.Options) core.Config {
	e := core.LookupTableIII(ranks)
	if opts.PQ == [2]int{} && (opts.Decomp == core.DecompPencils || opts.Decomp == core.DecompAuto) {
		opts.PQ = [2]int{e.P, e.Q}
	}
	return core.Config{
		Global:   global,
		InBoxes:  e.InOut.Decompose(global),
		OutBoxes: e.InOut.Decompose(global),
		Opts:     opts,
	}
}

// paperGrid is the 512³ transform of the paper's strong-scaling experiments.
var paperGrid = [3]int{512, 512, 512}

// nodeSweep returns the strong-scaling node counts (6 GPUs per node) up to max.
func nodeSweep(max int) []int {
	all := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	return all[:sort.SearchInts(all, max+1)]
}
