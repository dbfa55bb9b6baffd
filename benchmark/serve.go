package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/heffte"
	"repro/heffte/serve"
	"repro/internal/dft"
	"repro/internal/mpisim"
	"repro/internal/sched"
)

// serveSpec is the serving workload: a closed loop (FFT callers — MD/PIC
// timestep loops — wait for their reply) of clients pinned to a few shapes,
// each alternating Forward/Inverse in place on its own buffer, no think
// time, no deadline.
type serveSpec struct {
	cfg serve.Config
	// shapes are the cube edges; clientsPerShape clients are pinned to each.
	shapes          []int
	clientsPerShape int
	warmup          time.Duration
}

// serveMixed: Ranks 8, Workers 1, Window 200µs, MaxBatch 16 on Summit; four
// clients on 32³ and four on 64³. Workers is 1 on purpose: with two workers
// closed-loop throughput on two cores is bimodal (set by how many cheap 32³
// requests slip past a 64³ batch); with one it repeats.
func serveMixed(quick bool) *serveSpec {
	s := &serveSpec{
		cfg:    serve.Config{Ranks: 8, Workers: 1, Window: 200 * time.Microsecond, MaxBatch: 16},
		shapes: []int{32, 64}, clientsPerShape: 4, warmup: 2 * time.Second,
	}
	if quick {
		s.shapes, s.clientsPerShape, s.warmup = []int{16, 32}, 2, 100*time.Millisecond
	}
	return s
}

func (s *serveSpec) clients() int { return len(s.shapes) * s.clientsPerShape }

type servePassOpts struct {
	seed    int64
	seconds float64 // timed region; 0 makes a set-up-only pass
	rec     *recorder
}

type serveResult struct {
	setupSec       float64 // serve.New → first request of every shape returned
	setupRefSec    float64 // the host-speed probe right after set-up
	engineBuildSec float64 // the cold first requests alone

	latencySec []float64   // every timed request, Submit call → return
	endAt      []time.Time // and when it returned
	// The timed phase (to the last return) in slices between host-speed
	// probes: wall seconds, process CPU seconds, the probe closing the slice.
	sliceSec, sliceCPU, refSec []float64
	sliceEnd                   []time.Time

	gcCPUSec     float64
	mallocs      float64
	allocBytes   float64
	liveHeapMB   float64
	relErr       float64
	failed       int
	stats        serve.Stats
	virtualPerOp float64 // engines' virtual seconds per request
}

func (r *serveResult) attempted() int { return len(r.latencySec) + r.failed }

// latencyAtRefSpeed scales every latency by the reference-speed factor of the
// slice the request returned in (wall is atRefSpeed(sliceSec, refSec)).
func (r *serveResult) latencyAtRefSpeed(wall []float64) []float64 {
	out := make([]float64, len(r.latencySec))
	for i, l := range r.latencySec {
		k := sort.Search(len(r.sliceEnd)-1, func(k int) bool { return !r.sliceEnd[k].Before(r.endAt[i]) })
		out[i] = l * wall[k] / r.sliceSec[k]
	}
	return out
}

// run executes one pass: set-up (New, one cold request per shape), an
// untimed warm-up, then the timed closed loop. Clients stop after an Inverse
// so every buffer ends on a whole number of round trips.
func (s *serveSpec) run(o servePassOpts) (*serveResult, error) {
	res := &serveResult{}
	root := o.rec.begin("pass", -1, -1, 0)
	defer o.rec.end(root)
	ctx := context.Background()

	// Payloads come from the seed before any timer starts.
	bufs := make([][]complex128, s.clients())
	for cl := range bufs {
		n := s.shapes[cl/s.clientsPerShape]
		bufs[cl] = make([]complex128, n*n*n)
		fillComplex(bufs[cl], o.seed, cl, 0)
	}
	submit := func(srv *serve.Server, cl int, dir serve.Direction) error {
		n := s.shapes[cl/s.clientsPerShape]
		return srv.Submit(ctx, &serve.Request{Global: cube(n), Direction: dir, Data: bufs[cl]})
	}

	t0 := time.Now()
	id := o.rec.begin("serve.New", root, -1, 0)
	srv := serve.New(s.cfg)
	o.rec.end(id)
	defer srv.Close()
	tCold := time.Now()
	for si := range s.shapes {
		cl := si * s.clientsPerShape
		id = o.rec.begin("Submit (cold)", root, -1, cl)
		for _, dir := range []serve.Direction{serve.Forward, serve.Inverse} {
			if err := submit(srv, cl, dir); err != nil {
				return nil, fmt.Errorf("serve: cold request %d³: %w", s.shapes[si], err)
			}
		}
		o.rec.end(id)
	}
	res.engineBuildSec = time.Since(tCold).Seconds()
	res.setupSec = time.Since(t0).Seconds()
	res.setupRefSec = refMedian(3)
	if o.seconds == 0 {
		return res, nil
	}

	// loop runs every client until the deadline; record keeps the latencies.
	loop := func(deadline time.Time, record bool) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		var failed atomic.Int64
		for cl := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lat []float64
				var ends []time.Time
				for n := 0; time.Now().Before(deadline); n++ {
					for _, dir := range []serve.Direction{serve.Forward, serve.Inverse} {
						sp := -1
						if record {
							sp = o.rec.begin("Submit", root, 2*n+int(dir), cl)
						}
						start := time.Now()
						err := submit(srv, cl, dir)
						end := time.Now()
						o.rec.end(sp)
						if err != nil {
							failed.Add(1)
							continue
						}
						lat, ends = append(lat, end.Sub(start).Seconds()), append(ends, end)
					}
				}
				if record {
					mu.Lock()
					res.latencySec, res.endAt = append(res.latencySec, lat...), append(res.endAt, ends...)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		res.failed += int(failed.Load())
	}

	loop(time.Now().Add(s.warmup), false)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	res.liveHeapMB = float64(m0.HeapAlloc) / mb
	before := srv.Stats()
	gc0 := gcCPUSeconds()
	// The host-speed probe runs beside the clients, 2.5 ms in every 100, and
	// cuts the timed phase into slices: wall and CPU time from the end of one
	// probe to the end of the next, less the probe itself.
	stopProbe, probed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probed)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		at, cpu := time.Now(), cpuSeconds()
		for done := false; !done; {
			select {
			case <-stopProbe:
				done = true // one last probe closes the last slice
			case <-tick.C:
			}
			ref := refSample()
			now, cpuNow := time.Now(), cpuSeconds()
			res.refSec = append(res.refSec, ref)
			res.sliceEnd = append(res.sliceEnd, now)
			res.sliceSec = append(res.sliceSec, now.Sub(at).Seconds()-ref)
			res.sliceCPU = append(res.sliceCPU, cpuNow-cpu-ref) // single-threaded: its CPU is its wall time
			at, cpu = now, cpuNow
		}
	}()
	loop(time.Now().Add(time.Duration(o.seconds*float64(time.Second))), true)
	close(stopProbe)
	<-probed
	res.gcCPUSec = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	res.mallocs = float64(m1.Mallocs - m0.Mallocs)
	res.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	res.stats = srv.Stats()

	var vsec, reqs float64
	for i, e := range res.stats.Engines {
		vsec += e.VirtualSeconds - before.Engines[i].VirtualSeconds
		reqs += float64(e.Requests - before.Engines[i].Requests)
	}
	res.virtualPerOp = vsec / reqs
	for cl := range bufs {
		res.relErr = math.Max(res.relErr, relErrComplex(bufs[cl], o.seed, cl, 0))
	}
	return res, nil
}

// refCheck submits one 16³ Forward through a server of the same
// configuration and compares it with the O(N²) DFT.
func (s *serveSpec) refCheck(seed int64) (float64, error) {
	const n = 16
	x := make([]complex128, n*n*n)
	fillComplex(x, seed, -1, 0)
	got := append([]complex128(nil), x...)
	srv := serve.New(s.cfg)
	defer srv.Close()
	if err := srv.Submit(context.Background(), &serve.Request{Global: cube(n), Data: got}); err != nil {
		return 0, fmt.Errorf("serve: reference request: %w", err)
	}
	return maxDiffRatio(got, dft.Transform3D(x, n, n, n)), nil
}

// pipelines probes, for every shape, a plan with the configuration the
// server's engines use, and returns its replay geometry. Every shape gets an
// equal share of the requests: with one worker the scheduler's rotating ready
// queue alternates the shapes' batches, so each closed-loop client completes
// one request per rotation (measured mix: within 2 % of equal). A fixed share
// keeps the layer counts exact from run to run.
func (s *serveSpec) pipelines() ([]pipeline, error) {
	ranks := s.cfg.Ranks
	pipes := make([]pipeline, len(s.shapes))
	for si, n := range s.shapes {
		cfg := heffte.Config{Global: cube(n), Opts: heffte.Options{Decomp: heffte.DecompAuto, Comm: s.cfg.Comm}}
		phases := make([][]phaseInfo, ranks)
		err := runSmall(ranks, !s.cfg.NoGPUAware, func(c *mpisim.Comm) error {
			plan, err := heffte.NewPlan(c, cfg)
			if err != nil {
				return err
			}
			phases[c.Rank()] = phasesOf(plan)
			if c.Rank() == 0 {
				share := 1 / float64(len(s.shapes))
				pipes[si], err = c2cPipeline(fmt.Sprintf("serve%d", n), plan, ranks, cfg, false, 1, exchAlltoallv, c.GPUAware(), share)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		pipes[si].phases = phases
		if err := pipes[si].validate(); err != nil {
			return nil, err
		}
	}
	return pipes, nil
}

// scatterGatherSec times the public Scatter+Gather of one n³ request over
// the engines' input bricks: what every request pays around its transform.
func (s *serveSpec) scatterGatherSec(n, reps int) float64 {
	boxes := heffte.DefaultBricks(s.cfg.Ranks, cube(n))
	data := make([]complex128, n*n*n)
	var xs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		serve.Gather(cube(n), data, serve.Scatter(cube(n), data, boxes))
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs)
}

// schedOverheadSec is the median Submit→return through a bare
// sched.Scheduler with a no-op Runner, the same Config and client count: the
// coalescer's own latency (it includes the coalescing window).
func (s *serveSpec) schedOverheadSec(perClient int) float64 {
	sc := sched.New[int](sched.Config{Workers: s.cfg.Workers, MaxQueue: s.cfg.MaxQueue,
		Window: s.cfg.Window, MaxBatch: s.cfg.MaxBatch}, func(string, []int) error { return nil })
	defer sc.Close()
	lat := make([][]float64, s.clients())
	var wg sync.WaitGroup
	for cl := range lat {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprint(s.shapes[cl/s.clientsPerShape])
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if err := sc.Submit(context.Background(), key, i); err != nil {
					continue // rejected: no latency to report
				}
				lat[cl] = append(lat[cl], time.Since(t0).Seconds())
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return median(all)
}
