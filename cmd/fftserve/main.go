// Command fftserve drives synthetic load against the serving layer
// (heffte/serve): an open-loop Poisson arrival process, or a closed loop of
// concurrent submitters, over one or more transform shapes. It prints
// achieved throughput, client-side p50/p99 latency, mean coalesced batch
// size, and the server's stats report.
//
// The -mode flag selects the execution path under the same load:
//
//	serve    requests go through serve.Server: shape-keyed coalescing into
//	         fused batches on cached resident plans
//	perplan  every request builds its own world + plan, runs one Forward,
//	         and tears both down — the one-request-per-plan baseline
//
// Usage:
//
//	fftserve                                  # open-loop Poisson load, serve mode
//	fftserve -mode perplan -rate 100          # same load against the baseline
//	fftserve -smoke                           # small CI run (exit 1 on failure)
//	fftserve -chaos faults -seed 7            # seeded fault-injection scenario
//	fftserve -chaos sdc -smoke -seed 3        # small chaos run for CI
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/heffte"
	"repro/heffte/serve"
	"repro/internal/sched"
)

func main() {
	var (
		shapes   = flag.String("shapes", "64x64x64", "comma-separated global grids, e.g. 64x64x64,32x32x32")
		ranks    = flag.Int("ranks", 8, "world size of each engine (and of the perplan worlds)")
		mode     = flag.String("mode", "serve", "execution path: serve | perplan")
		rate     = flag.Float64("rate", 2000, "open-loop Poisson arrival rate, requests/sec (0 = closed loop)")
		duration = flag.Duration("duration", 5*time.Second, "open-loop run length")
		clients  = flag.Int("clients", 16, "concurrent submitters (closed loop) / in-flight cap (open loop)")
		requests = flag.Int("requests", 256, "total requests in closed-loop mode")
		window   = flag.Duration("window", 200*time.Microsecond, "server coalescing window")
		maxBatch = flag.Int("maxbatch", 16, "server max fused batch size")
		workers  = flag.Int("workers", 2, "server worker pool size")
		queue    = flag.Int("queue", 256, "server admission bound (MaxQueue)")
		deadline = flag.Duration("deadline", 0, "per-request deadline (0 = none)")
		seed     = flag.Int64("seed", 1, "load-generator seed")
		stats    = flag.Bool("stats", false, "print the server stats report after the run")
		smoke    = flag.Bool("smoke", false, "small self-checking run for CI")
		chaos    = flag.String("chaos", "", "run the named seeded chaos scenario (verified load against faulty engines, exit 1 on any lost or wrong response); -smoke shrinks it for CI")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fftserve:", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q: every setting is a -flag, and flags come first", flag.Arg(0)))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-ranks", *ranks}, {"-clients", *clients}, {"-maxbatch", *maxBatch}, {"-workers", *workers}, {"-queue", *queue}} {
		if f.v < 1 {
			fail(fmt.Errorf("%s must be at least 1, got %d", f.name, f.v))
		}
	}
	switch {
	case !(*rate >= 0):
		fail(fmt.Errorf("-rate must not be negative, got %g", *rate))
	case *rate > 0 && *duration <= 0:
		fail(fmt.Errorf("-duration must be positive in the open loop (-rate > 0), got %s", *duration))
	case *rate == 0 && *requests < 1:
		fail(fmt.Errorf("-requests must be at least 1 in the closed loop (-rate 0), got %d", *requests))
	case *deadline < 0:
		fail(fmt.Errorf("-deadline must not be negative, got %s", *deadline))
	}

	if *chaos != "" {
		sc := lookupScenario(*chaos)
		if sc == nil {
			fmt.Fprintf(os.Stderr, "fftserve: unknown -chaos scenario %q; the table has:\n", *chaos)
			for _, sc := range scenarios {
				fmt.Fprintf(os.Stderr, "  %-8s %s\n", sc.name, sc.about)
			}
			os.Exit(2)
		}
		if err := sc.run(os.Stdout, *seed, *smoke); err != nil {
			fmt.Fprintf(os.Stderr, "fftserve: chaos %s FAILED: %v\n", sc.name, err)
			os.Exit(1)
		}
		return
	}

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "fftserve: smoke FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("SMOKE OK")
		return
	}

	globals, err := parseShapes(*shapes)
	if err != nil {
		fail(err)
	}
	lc := loadConfig{
		globals:  globals,
		ranks:    *ranks,
		rate:     *rate,
		duration: *duration,
		clients:  *clients,
		requests: *requests,
		window:   *window,
		maxBatch: *maxBatch,
		workers:  *workers,
		queue:    *queue,
		deadline: *deadline,
		seed:     *seed,
	}

	res, srvStats, err := runLoad(*mode, lc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftserve:", err)
		os.Exit(1)
	}
	printReport(*mode, lc, res)
	if *stats && srvStats != nil {
		fmt.Println()
		srvStats.WriteText(os.Stdout)
	}
}

// ---------------------------------------------------------------------------
// Configuration

type loadConfig struct {
	globals  [][3]int
	ranks    int
	rate     float64 // 0 => closed loop
	duration time.Duration
	clients  int
	requests int
	window   time.Duration
	maxBatch int
	workers  int
	queue    int
	deadline time.Duration
	seed     int64
}

// parseShapes reads a comma-separated list of N0xN1xN2 grids. Every token
// must be exactly three positive integers: the extents size allocations.
func parseShapes(s string) ([][3]int, error) {
	var out [][3]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bad := fmt.Errorf("bad shape %q (want N0xN1xN2, every extent ≥ 1)", part)
		dims := strings.Split(part, "x")
		if len(dims) != 3 {
			return nil, bad
		}
		var g [3]int
		for d, tok := range dims {
			n, err := strconv.Atoi(tok)
			if err != nil || n < 1 {
				return nil, bad
			}
			g[d] = n
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shapes given")
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Executors: the serve path and the one-plan-per-request baseline

// executor runs one forward transform of global in place on data.
type executor func(global [3]int, data []complex128) error

func serveExecutor(srv *serve.Server, deadline time.Duration) executor {
	return func(global [3]int, data []complex128) error {
		ctx := context.Background()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		return srv.Submit(ctx, &serve.Request{Global: global, Data: data})
	}
}

// perPlanExecutor is the baseline the serving layer exists to beat: every
// request spins up a world, creates a plan collectively, runs a single
// Forward, and tears everything down.
func perPlanExecutor(m *heffte.Machine, ranks int) executor {
	return func(global [3]int, data []complex128) error {
		fields := serve.Scatter(global, data, heffte.DefaultBricks(ranks, global))
		errs := make([]error, ranks)
		w := heffte.NewWorld(m, ranks, heffte.WorldOptions{GPUAware: true})
		w.Run(func(c *heffte.Comm) {
			plan, err := heffte.NewPlan(c, heffte.Config{Global: global})
			if err != nil {
				errs[c.Rank()] = err
				return
			}
			defer plan.Close()
			errs[c.Rank()] = plan.Forward(fields[c.Rank()])
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		serve.Gather(global, data, fields)
		return nil
	}
}

// ---------------------------------------------------------------------------
// Load generation

type result struct {
	completed int64
	rejected  int64
	deadlined int64
	failed    int64
	dropped   int64 // open loop: arrivals shed because the in-flight cap was hit
	wall      time.Duration
	latencies []time.Duration
	meanBatch float64 // serve mode only
}

func (r *result) record(start time.Time, err error) {
	lat := time.Since(start)
	switch {
	case err == nil:
		atomic.AddInt64(&r.completed, 1)
	case isOverloaded(err):
		atomic.AddInt64(&r.rejected, 1)
	case isDeadline(err):
		atomic.AddInt64(&r.deadlined, 1)
	default:
		atomic.AddInt64(&r.failed, 1)
	}
	if err == nil {
		latMu.Lock()
		r.latencies = append(r.latencies, lat)
		latMu.Unlock()
	}
}

var latMu sync.Mutex

func isOverloaded(err error) bool { return errors.Is(err, heffte.ErrOverloaded) }
func isDeadline(err error) bool   { return errors.Is(err, heffte.ErrDeadlineExceeded) }

// slot is one reusable request buffer bound to a fixed shape; slots bound
// memory in both loop styles.
type slot struct {
	global [3]int
	data   []complex128
}

func makeSlots(lc loadConfig) []*slot {
	slots := make([]*slot, lc.clients)
	rng := rand.New(rand.NewSource(lc.seed))
	for i := range slots {
		g := lc.globals[i%len(lc.globals)]
		vol := g[0] * g[1] * g[2]
		data := make([]complex128, vol)
		for j := range data {
			data[j] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		slots[i] = &slot{global: g, data: data}
	}
	return slots
}

// openLoop fires arrivals at Poisson times independent of completions. A
// bounded pool of slots caps in-flight requests: an arrival that finds no
// free slot is shed at the source (counted, not queued), so the generator
// stays open-loop without unbounded memory.
func openLoop(exec executor, lc loadConfig) result {
	var res result
	pool := make(chan *slot, lc.clients)
	for _, s := range makeSlots(lc) {
		pool <- s
	}
	rng := rand.New(rand.NewSource(lc.seed + 7919))
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / lc.rate * float64(time.Second)))
		if next.Sub(start) >= lc.duration {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case s := <-pool:
			wg.Add(1)
			go func(s *slot) {
				defer wg.Done()
				t0 := time.Now()
				res.record(t0, exec(s.global, s.data))
				pool <- s
			}(s)
		default:
			res.dropped++
		}
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// closedLoop runs lc.clients submitters back-to-back until lc.requests have
// been issued.
func closedLoop(exec executor, lc loadConfig) result {
	var res result
	var issued int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, s := range makeSlots(lc) {
		wg.Add(1)
		go func(s *slot) {
			defer wg.Done()
			for atomic.AddInt64(&issued, 1) <= int64(lc.requests) {
				t0 := time.Now()
				res.record(t0, exec(s.global, s.data))
			}
		}(s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// runLoad builds the executor for mode, runs the configured loop, and (in
// serve mode) harvests the server stats.
func runLoad(mode string, lc loadConfig) (result, *serve.Stats, error) {
	var exec executor
	var srv *serve.Server
	switch mode {
	case "serve":
		srv = serve.New(serve.Config{
			Ranks:    lc.ranks,
			Window:   lc.window,
			MaxBatch: lc.maxBatch,
			Workers:  lc.workers,
			MaxQueue: lc.queue,
		})
		defer srv.Close()
		exec = serveExecutor(srv, lc.deadline)
	case "perplan":
		exec = perPlanExecutor(heffte.Summit(), lc.ranks)
	default:
		return result{}, nil, fmt.Errorf("unknown -mode %q (want serve or perplan)", mode)
	}

	var res result
	if lc.rate > 0 {
		res = openLoop(exec, lc)
	} else {
		res = closedLoop(exec, lc)
	}
	if srv != nil {
		st := srv.Stats()
		res.meanBatch = st.Scheduler.Total.MeanBatch()
		return res, &st, nil
	}
	return res, nil, nil
}

// ---------------------------------------------------------------------------
// Reporting

func printReport(mode string, lc loadConfig, res result) {
	loop := "closed"
	if lc.rate > 0 {
		loop = fmt.Sprintf("open (Poisson %.0f req/s)", lc.rate)
	}
	fmt.Printf("mode=%s shapes=%s ranks=%d loop=%s clients=%d window=%s maxbatch=%d\n",
		mode, shapeNames(lc.globals), lc.ranks, loop, lc.clients, lc.window, lc.maxBatch)
	fmt.Printf("requests: %d completed, %d rejected, %d deadline-exceeded, %d failed, %d shed at source\n",
		res.completed, res.rejected, res.deadlined, res.failed, res.dropped)
	rps := float64(res.completed) / res.wall.Seconds()
	fmt.Printf("wall %s  throughput %.1f req/s\n", res.wall.Round(time.Millisecond), rps)
	// Client-side latencies on the scheduler's own latency buckets.
	secs := make([]float64, len(res.latencies))
	for i, l := range res.latencies {
		secs[i] = l.Seconds()
	}
	lat := sched.NewHistogram(nil, secs...)
	quantile := func(q float64) time.Duration {
		return time.Duration(lat.Quantile(q) * float64(time.Second)).Round(10 * time.Microsecond)
	}
	fmt.Printf("latency p50 %s  p99 %s\n", quantile(0.50), quantile(0.99))
	if mode == "serve" {
		fmt.Printf("mean batch %.2f\n", res.meanBatch)
	}
}

func shapeNames(globals [][3]int) string {
	parts := make([]string, len(globals))
	for i, g := range globals {
		parts[i] = fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2])
	}
	return strings.Join(parts, ",")
}

// ---------------------------------------------------------------------------
// Smoke: a fast self-checking pass for CI

func runSmoke() error {
	lc := loadConfig{
		globals:  [][3]int{{16, 16, 16}},
		ranks:    4,
		rate:     0, // closed loop: deterministic request count
		clients:  8,
		requests: 32,
		window:   2 * time.Millisecond,
		maxBatch: 8,
		workers:  2,
		queue:    64,
		seed:     1,
	}
	res, st, err := runLoad("serve", lc)
	if err != nil {
		return err
	}
	printReport("serve", lc, res)
	if res.completed != int64(lc.requests) {
		return fmt.Errorf("serve: completed %d of %d", res.completed, lc.requests)
	}
	if got := st.Scheduler.Total.Completed; got != uint64(lc.requests) {
		return fmt.Errorf("server stats disagree: Completed = %d", got)
	}

	// Exercise the baseline path too, briefly.
	lc.requests, lc.clients = 4, 2
	res, _, err = runLoad("perplan", lc)
	if err != nil {
		return err
	}
	printReport("perplan", lc, res)
	if res.completed != 4 {
		return fmt.Errorf("perplan: completed %d of 4", res.completed)
	}
	return nil
}
