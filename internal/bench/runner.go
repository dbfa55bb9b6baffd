package bench

import (
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
	"repro/internal/tuning"
)

// newTracer makes the tracer of every measured run; tests wrap it to see the
// events the experiments record.
var newTracer = trace.New

// fftRun describes one measured FFT experiment: the paper's protocol
// (tuning.Measure, 2 warm-up transforms then the average of 4 forward and 4
// backward) on every rank of a fresh traced world.
type fftRun struct {
	model *machine.Model
	ranks int
	aware bool
	cfg   core.Config
	batch int // fields per transform call (0 or 1 = unbatched)
	// perCall names the events whose per-call series the run keeps, warm-up
	// calls included (the paper's Figs. 2/3 plot all 40 calls).
	perCall []string
}

// measured aggregates one run's virtual-time results.
type measured struct {
	// TotalPerFFT is the average wall (virtual) time of one transform: the
	// timed section, barrier to barrier, over the transform count.
	TotalPerFFT float64
	// Breakdown splits TotalPerFFT by the timeline of the rank that finishes
	// the timed transforms last (the lowest index on a tie), plus "wait"
	// (trace.Tracer.Breakdown).
	Breakdown map[string]float64
	// CommPerFFT is the sum of Breakdown's MPI_* rows.
	CommPerFFT float64
	// PerCall holds the series of fftRun.perCall (trace.PerCall).
	PerCall map[string][]float64
	// Exchanges is the number of communication phases in the plan.
	Exchanges int
}

// run executes the experiment and gathers results; a bad configuration
// panics (Run recovers it). All payloads are phantom: timing is identical to
// real payloads (a tested property) and paper-scale grids need no memory.
func (r fftRun) run() (m measured) {
	tr := newTracer()
	w := mpisim.NewWorld(r.model, r.ranks, mpisim.Options{GPUAware: r.aware, Tracer: tr})
	var from float64
	ends := make([]float64, r.ranks)
	w.Run(func(c *mpisim.Comm) {
		p, err := core.NewPlan(c, r.cfg)
		if err != nil {
			panic(err)
		}
		start, end, per, err := tuning.Measure(c, p, max(r.batch, 1), tuning.Timed)
		if err != nil {
			panic(err)
		}
		ends[c.Rank()] = end
		if c.Rank() == 0 {
			m.TotalPerFFT, m.Exchanges, from = per, p.Exchanges(), start
		}
	})
	m.PerCall = make(map[string][]float64, len(r.perCall))
	for _, name := range r.perCall {
		m.PerCall[name] = tr.PerCall(name)
	}
	// The barrier synchronized all clocks: everything that started before it
	// is warm-up (pruning by virtual time is deterministic, unlike a racy
	// reset).
	tr.Prune(from)
	m.Breakdown = tr.Breakdown(slices.Index(ends, slices.Max(ends)), tuning.Timed, m.TotalPerFFT)
	for _, name := range tr.Names() { // sorted, so the sum is bit-reproducible
		if strings.HasPrefix(name, "MPI_") {
			m.CommPerFFT += m.Breakdown[name]
		}
	}
	return m
}

// forwardOnce creates cfg's plan on every rank of w, runs one Forward and
// returns the virtual makespan — the single-shot measurement of the regime
// experiments, which compare configurations rather than follow the paper's
// averaged protocol. The phantom seed transforms size-only fields (timing is
// identical to real payloads, a tested property); any other seed fills rank
// r's field from seed+r, for experiments where the bits matter. inspect, when
// non-nil, sees every rank's plan and transformed field before the plan closes.
func forwardOnce(w *mpisim.World, cfg core.Config, seed int64, inspect func(rank int, p *core.Plan, f *core.Field)) (float64, error) {
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
		if inspect != nil {
			inspect(c.Rank(), p, f)
		}
	})
	return res.MaxClock, res.Err
}

// phantom is forwardOnce's seed for size-only payloads.
const phantom = 0

// forcedAlgo is the Alltoallv plan config with the collective schedule forced.
func forcedAlgo(grid [3]int, algo core.CollAlgo) core.Config {
	return core.Config{Global: grid, Opts: core.Options{
		Backend: core.BackendAlltoallv,
		Comm:    core.CommConfig{Algo: algo},
	}}
}

// tableIIIConfig builds the plan config of the strong-scaling experiments:
// brick input/output per Table III, pencil FFT grids (P, Q).
func tableIIIConfig(ranks int, global [3]int, opts core.Options) core.Config {
	e := core.LookupTableIII(ranks)
	if opts.PQ == [2]int{} {
		opts.PQ = [2]int{e.P, e.Q}
	}
	return core.Config{
		Global:   global,
		InBoxes:  e.InOut.Decompose(global),
		OutBoxes: e.InOut.Decompose(global),
		Opts:     opts,
	}
}

// gridFor picks the experiment grid size: the paper's 512³, or a reduced one
// in quick mode.
func gridFor(opts RunOptions) [3]int {
	if opts.Quick {
		return [3]int{64, 64, 64}
	}
	return [3]int{512, 512, 512}
}

// nodeSweep returns the strong-scaling node counts (6 GPUs per node).
func nodeSweep(opts RunOptions, max int) []int {
	all := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	var out []int
	for _, n := range all {
		if n > max {
			break
		}
		if opts.Quick && n > 8 {
			break
		}
		out = append(out, n)
	}
	return out
}
