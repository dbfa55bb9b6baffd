package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// call is one call into the program on one rank; step is the unit the
// harness times on rank 0: its calls, then a barrier. One timed iteration
// runs every step of the rank program in order.
type call struct {
	name string
	run  func() error
}

type step struct {
	name       string
	transforms int // single-grid transforms the step completes
	calls      []call
	// metric, when set, names the per-layer row the step's median time feeds.
	metric string
}

// rankProg is what one rank executes. build (collective plan creation)
// returns it; fill allocates and fills the fields from the workload seed.
type rankProg struct {
	fill  func()
	steps []step
	// relErr returns this rank's ‖x − x₀‖∞/‖x₀‖∞ against the regenerated
	// payload, valid after any whole number of iterations (each iteration is
	// a Forward/Inverse round trip). Nil for phantom payloads.
	relErr func() float64
	// exchanges is Plan.Exchanges() on this rank.
	exchanges int
	// phases is what the complex plan reports for this rank's communication
	// phases; the replay geometry is validated against it.
	phases []phaseInfo
	// describe returns the geometry the layer replays drive (rank 0 only);
	// the complex plan's pipeline comes first.
	describe func() ([]pipeline, error)
}

// worldSpec is one world-based workload: shapes and rank counts are fixed,
// only run length scales.
type worldSpec struct {
	ranks    int
	gpuAware bool
	// fixedIters is the number of timed iterations the traced run and its
	// untraced twin execute, and the window (from the opening barrier) over
	// which virtual_us_per_transform is taken in every run — so the virtual
	// numbers do not depend on how long the host let the timed region run.
	fixedIters int
	build      func(c *mpisim.Comm, seed int64) (*rankProg, error)
	// refCheck runs the same plan configuration on a 16³ grid and returns
	// the forward result's relative error against internal/dft. Nil for
	// phantom payloads.
	refCheck func(seed int64) (float64, error)
}

// transformsPerIter is the number of single-grid transforms one iteration completes.
func (p *rankProg) transformsPerIter() int {
	n := 0
	for _, st := range p.steps {
		n += st.transforms
	}
	return n
}

// passOpts selects what one pass over a world does.
type passOpts struct {
	seed int64
	// iters is the minimum number of timed iterations and seconds the
	// minimum timed wall time; the loop stops once both are met. Both zero
	// makes a set-up-only pass (through the first Forward+Inverse pair).
	iters   int
	seconds float64
	tracer  *trace.Tracer
	rec     *recorder
	// memProbe collects garbage and reads MemStats at the set-up phase
	// boundaries (core.plan_alloc_mb, core.plan_live_mb). The pass's set-up
	// timings are then not comparable and are not used.
	memProbe bool
	// describe asks rank 0 for the replay geometry.
	describe bool
}

// setupTimes are the phases of set-up in seconds, barrier to barrier on rank 0.
type setupTimes struct {
	worldNew, planBuild, firstPair, total float64
	// refSec is the host-speed probe's time right after this set-up.
	refSec float64
}

type passResult struct {
	setup                   setupTimes
	planAllocMB, planLiveMB float64

	perIter    int         // transforms per timed iteration
	iterCPU    []float64   // process CPU seconds of every timed iteration
	refSec     []float64   // host-speed probe, one sample after every timed iteration
	iterSec    []float64   // per timed iteration
	stepSec    [][]float64 // [step][iteration]
	stepMetric []string    // [step], see step.metric
	gcCPUSec   float64
	mallocs    float64
	allocBytes float64
	liveHeapMB float64
	// virtualSec is rank 0's virtual seconds per transform over the first
	// fixedIters timed iterations, each from its opening to its closing barrier.
	virtualSec float64
	relErr     float64
	pipes      []pipeline
	// Traced passes: per-category virtual seconds per transform (max over
	// ranks of per-rank sums), events per transform, end-of-run clock skew.
	breakdown map[string]float64
	events    float64
	skewPct   float64
}

func (r *passResult) transforms() int { return r.perIter * len(r.iterSec) }

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// gcCPUSeconds is the CPU the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

const mb = 1 << 20

// run executes one pass: NewWorld → collective plan build → fill → first
// Forward+Inverse pair (set-up), then a second warm-up pair and the timed
// loop. Every step is bracketed by Comm.Barrier() and timed on rank 0; the
// other ranks' wall times are scheduler noise at 12–384× oversubscription
// and are not reported.
func (ws *worldSpec) run(o passOpts) (res *passResult, err error) {
	res = &passResult{}
	root := o.rec.begin("pass", -1, -1, 0)
	defer o.rec.end(root)
	// World.Run re-raises a rank's panic; report it as this pass's error.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("world: %v", p)
		}
	}()

	var base runtime.MemStats
	if o.memProbe {
		runtime.GC()
		runtime.ReadMemStats(&base)
	}
	t0 := time.Now()
	sp := o.rec.begin("NewWorld", root, -1, 0)
	w := mpisim.NewWorld(machine.Summit(), ws.ranks, mpisim.Options{GPUAware: ws.gpuAware, Tracer: o.tracer})
	o.rec.end(sp)
	res.setup.worldNew = time.Since(t0).Seconds()

	relErrs := make([]float64, ws.ranks)
	exchanges := make([]int, ws.ranks)
	phases := make([][]phaseInfo, ws.ranks)
	var stop atomic.Bool
	var v0, vEnd float64
	timed := o.iters > 0 || o.seconds > 0

	runSpan := o.rec.begin("World.Run", root, -1, 0)
	out := w.Run(func(c *mpisim.Comm) {
		rank := c.Rank()
		lead := rank == 0
		// A rank that fails must take the world down with it, or its peers
		// wait in the next collective forever.
		must := func(what string, err error) {
			if err != nil {
				c.Fail(fmt.Errorf("rank %d: %s: %w", rank, what, err))
			}
		}
		since := func(from time.Time) float64 { return time.Since(from).Seconds() }

		c.Barrier()
		tPhase := time.Now()
		id := -1
		if lead {
			id = o.rec.begin("NewPlan", runSpan, -1, 0)
		}
		prog, err := ws.build(c, o.seed)
		must("plan build", err)
		c.Barrier()
		if lead {
			o.rec.end(id)
			res.setup.planBuild = since(tPhase)
			if o.memProbe {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				res.planAllocMB = float64(m.TotalAlloc-base.TotalAlloc) / mb
				runtime.GC()
				runtime.ReadMemStats(&m)
				res.planLiveMB = (float64(m.HeapAlloc) - float64(base.HeapAlloc)) / mb
			}
		}
		if o.memProbe {
			c.Barrier()
		}
		exchanges[rank] = prog.exchanges
		phases[rank] = prog.phases

		if lead {
			id = o.rec.begin("fill", runSpan, -1, 0)
		}
		prog.fill()
		c.Barrier()
		if lead {
			o.rec.end(id)
		}

		// iterate runs one iteration; rank 0 times every step of a timed one
		// up to the return of its barrier. beforeLast runs on every rank
		// before the closing barrier of the iteration.
		var prev, begun time.Time
		iterate := func(it int, beforeLast func()) {
			for si, st := range prog.steps {
				for _, cl := range st.calls {
					if lead {
						id = o.rec.begin(cl.name, runSpan, it, 0)
					}
					must(cl.name, cl.run())
					if lead {
						o.rec.end(id)
					}
				}
				if si == len(prog.steps)-1 && beforeLast != nil {
					beforeLast()
				}
				c.Barrier()
				if lead && it >= 0 {
					now := time.Now()
					res.stepSec[si] = append(res.stepSec[si], now.Sub(prev).Seconds())
					prev = now
				}
			}
		}

		tPhase = time.Now()
		iterate(-1, nil)
		if lead {
			res.setup.firstPair = since(tPhase)
			res.setup.total = since(t0)
			res.setup.refSec = refMedian(3)
		}
		if !timed {
			return
		}
		iterate(-1, nil) // second warm-up pair

		// Between the warm-up's closing barrier and the timed region's
		// opening barrier rank 0 takes the memory and CPU baselines; the
		// other ranks wait in the barrier.
		var m0 runtime.MemStats
		var gc0 float64
		if lead {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&m0)
			res.liveHeapMB = float64(m0.HeapAlloc) / mb
			gc0 = gcCPUSeconds()
		}
		c.Barrier()
		var vStart, vSum, cpuPrev float64
		if lead {
			v0 = c.Clock()
			vStart = v0
			res.perIter = prog.transformsPerIter()
			res.stepSec = make([][]float64, len(prog.steps))
			for _, st := range prog.steps {
				res.stepMetric = append(res.stepMetric, st.metric)
			}
			begun = time.Now()
			prev = begun
			cpuPrev = cpuSeconds()
		}
		for it := 0; ; it++ {
			iterate(it, func() {
				// Rank 0 decides before the closing barrier, every rank reads
				// after it: the barrier orders the store before the loads.
				if lead && it+1 >= o.iters && since(begun) >= o.seconds {
					stop.Store(true)
				}
			})
			// The host-speed probe runs on rank 0 while every other rank is
			// parked in the barrier; its time and the barrier stay outside
			// the step timers and the virtual window.
			if lead {
				if it < ws.fixedIters {
					vSum += c.Clock() - vStart
				}
				res.iterCPU = append(res.iterCPU, cpuSeconds()-cpuPrev)
				res.refSec = append(res.refSec, refSample())
			}
			c.Barrier()
			if lead {
				prev, vStart, cpuPrev = time.Now(), c.Clock(), cpuSeconds()
			}
			if stop.Load() {
				break
			}
		}
		if lead {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			res.virtualSec = vSum / float64(ws.fixedIters*res.perIter)
			res.gcCPUSec = gcCPUSeconds() - gc0
			res.mallocs = float64(m1.Mallocs - m0.Mallocs)
			res.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
			vEnd = c.Clock()
			for it := range res.stepSec[0] {
				t := 0.0
				for si := range res.stepSec {
					t += res.stepSec[si][it]
				}
				res.iterSec = append(res.iterSec, t)
			}
			if o.describe {
				var err error
				res.pipes, err = prog.describe()
				must("describe", err)
			}
		}
		if prog.relErr != nil {
			relErrs[rank] = prog.relErr()
		}
		if o.tracer != nil {
			// One more un-barriered step leaves the rank clocks apart by the
			// skew of a single transform (Result.Clocks, max vs mean).
			for _, cl := range prog.steps[0].calls {
				must(cl.name, cl.run())
			}
		}
	})
	o.rec.end(runSpan)
	if out.Err != nil {
		return nil, fmt.Errorf("world: %w", out.Err)
	}

	for r := range relErrs {
		res.relErr = math.Max(res.relErr, relErrs[r])
		// Every rank must see the same, non-zero number of exchanges.
		if exchanges[r] != exchanges[0] || exchanges[r] == 0 {
			return nil, fmt.Errorf("world: rank %d reports %d exchanges, rank 0 reports %d", r, exchanges[r], exchanges[0])
		}
	}
	if len(res.pipes) > 0 {
		res.pipes[0].phases = phases
		for i := range res.pipes {
			if err := res.pipes[i].validate(); err != nil {
				return nil, err
			}
		}
	}
	if timed && len(res.iterSec) < ws.fixedIters {
		return nil, fmt.Errorf("world: %d timed iterations, virtual window needs %d", len(res.iterSec), ws.fixedIters)
	}
	if o.tracer != nil && timed {
		res.breakdown, res.events = virtualBreakdown(o.tracer, v0, vEnd, res.transforms())
		mean := 0.0
		for _, c := range out.Clocks {
			mean += c / float64(len(out.Clocks))
		}
		res.skewPct = 100 * (out.MaxClock - mean) / mean
	}
	return res, nil
}

// virtualBreakdown sums the tracer's events that started inside the timed
// window [from, to) per category and rank, and returns the max over ranks of
// each category in virtual seconds per transform (the slowest-process
// convention of the paper's breakdown plots), plus events per transform.
func virtualBreakdown(tr *trace.Tracer, from, to float64, transforms int) (map[string]float64, float64) {
	tr.Prune(from)
	perRank := map[string]map[int]float64{}
	events := 0
	for _, e := range tr.Events() {
		if e.Start >= to {
			continue
		}
		cat := eventCategory(e.Name)
		if cat == "" {
			continue
		}
		events++
		if perRank[cat] == nil {
			perRank[cat] = map[int]float64{}
		}
		perRank[cat][e.Rank] += e.Duration()
	}
	out := map[string]float64{}
	for cat, ranks := range perRank {
		maxSum := 0.0
		for _, v := range ranks {
			maxSum = math.Max(maxSum, v)
		}
		out[cat] = maxSum / float64(transforms)
	}
	return out, float64(events) / float64(transforms)
}

// eventCategory maps a trace event name onto the breakdown's categories
// ("" for events the breakdown leaves out).
func eventCategory(name string) string {
	switch {
	case name == "MPI_Barrier":
		return "" // the harness's own bracketing: waiting for the slowest rank, not work
	case strings.HasPrefix(name, "MPI_"):
		return "comm"
	case name == "pack" || name == "unpack":
		return name
	case strings.Contains(name, "fft"):
		return "fft"
	}
	return "other"
}

// payloadRNG is the generator behind every payload: a function of the
// workload seed, the rank (or client) and the field index only. The program
// never sees the seed, and no generator runs inside a timed region.
func payloadRNG(seed int64, rank, idx int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(rank)*8191 + int64(idx)*131 + 1))
}

func fillComplex(dst []complex128, seed int64, rank, idx int) {
	rng := payloadRNG(seed, rank, idx)
	for i := range dst {
		dst[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
}

func fillReal(dst []float64, seed int64, rank, idx int) {
	rng := payloadRNG(seed, rank, idx)
	for i := range dst {
		dst[i] = rng.NormFloat64()
	}
}

// relErrComplex regenerates the payload and returns ‖got − x₀‖∞/‖x₀‖∞.
func relErrComplex(got []complex128, seed int64, rank, idx int) float64 {
	rng := payloadRNG(seed, rank, idx)
	diff, norm := 0.0, 0.0
	for _, g := range got {
		want := complex(rng.NormFloat64(), rng.NormFloat64())
		diff = math.Max(diff, cabs(g-want))
		norm = math.Max(norm, cabs(want))
	}
	return ratio(diff, norm)
}

func relErrReal(got []float64, seed int64, rank, idx int) float64 {
	rng := payloadRNG(seed, rank, idx)
	diff, norm := 0.0, 0.0
	for _, g := range got {
		want := rng.NormFloat64()
		diff = math.Max(diff, math.Abs(g-want))
		norm = math.Max(norm, math.Abs(want))
	}
	return ratio(diff, norm)
}

func cabs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

// ratio is a/b, with an empty share (0/0) contributing no error.
func ratio(a, b float64) float64 {
	if b == 0 {
		return a
	}
	return a / b
}

// maxDiffRatio returns ‖got − want‖∞/‖want‖∞ of two equally long arrays.
func maxDiffRatio(got, want []complex128) float64 {
	diff, norm := 0.0, 0.0
	for i := range want {
		diff = math.Max(diff, cabs(got[i]-want[i]))
		norm = math.Max(norm, cabs(want[i]))
	}
	return ratio(diff, norm)
}
