package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/heffte"
	"repro/heffte/serve"
)

// Chaos mode (-chaos NAME): a seeded fault schedule injected into the
// server's engines while verified load runs against it. Each scenario is one
// row of the table below — server stages, load phases, the recovery counters
// that must have fired — and one harness drives them all: every request is
// submitted from pristine input, retried client-side within the phase's
// budget, and compared bit for bit against a clean-run reference spectrum, so
// a run proves that despite the faults no response is lost and none is wrong.
//
// Determinism: fault schedules are pure functions of (-seed, shape, build
// counter, rank→slot map), so identical seeds replay identical schedules;
// every armed plan's fingerprint is printed for comparison across runs.

// chaosRanks is the world size of every chaos engine.
const chaosRanks = 4

var (
	chaosPrimary = [3]int{16, 16, 16} // the shape that must recover
	chaosSecond  = [3]int{24, 24, 24} // the shape that exercises the fallback path
)

type scenario struct {
	name, about string
	// slotKeyed scenarios schedule faults by physical GPU slot, so the slot
	// map is part of every printed plan and a clean build is printed too: it
	// is the evidence that the engine was placed away from the bad slot.
	slotKeyed bool
	stages    []stage
}

// stage is one server lifetime: what its config adds to the common base (see
// harness.stage), the fault hook armed on its engine builds, the load run
// against it, and what its stats must show afterwards.
type stage struct {
	cfg    serve.Config
	faults func(seed int64, shape string, build int, slots []int) *heffte.FaultPlan
	phases []phase
	// require lists the counters that must be ≥ 1 once the phases have run.
	require func(serve.Stats) []counter
	check   func(serve.Stats) error
}

// phase is one burst or steady stretch of verified load. A burst is clients
// == requests: every request is in flight at once and they coalesce.
type phase struct {
	label    string
	shape    [3]int
	clients  int
	requests int
	smoke    int // request count under -smoke (0 = requests)
	// attempts bounds the tries per request: fault-class failures are retried
	// client-side from pristine input until it is spent.
	attempts int
	// want, when set, is the typed failure every request must end in.
	want error
}

type counter struct {
	name string
	got  uint64
}

func isShape(key string, g [3]int) bool {
	return strings.HasPrefix(key, shapeNames([][3]int{g})+"/")
}

var scenarios = []scenario{
	{
		// Batches fail on killed, stalled and corrupted engines, get split and
		// retried on rebuilt worlds; the second shape never gets a healthy
		// engine and must be carried by the breaker's degraded path.
		name:  "faults",
		about: "kills, drops, stalls and detected corruption: retry, batch split, eviction, breaker, degraded path, input restore",
		stages: []stage{{
			cfg: serve.Config{MaxRetries: 2, BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond},
			// Primary: the first two builds carry a seeded mix plus one
			// guaranteed kill at some rank's first exchange, so the build's
			// first batch fails wherever the sampled events land; later builds
			// are clean. Doomed shape: a first-exchange kill on every build.
			faults: func(seed int64, shape string, build int, _ []int) *heffte.FaultPlan {
				kill := heffte.FaultEvent{Kind: heffte.FaultKill, Rank: build % chaosRanks, Op: 0}
				switch {
				case isShape(shape, chaosSecond):
					return &heffte.FaultPlan{Timeout: 0.25, Events: []heffte.FaultEvent{kill}}
				case build < 2:
					p := heffte.GenerateFaults(seed+int64(build)*7919, chaosRanks, heffte.FaultConfig{
						Stalls: 1, Drops: 1, Corrupts: 1, Degrades: 1, OpHorizon: 8, Timeout: 0.25,
					})
					p.Events = append(p.Events, kill)
					return p
				}
				return nil
			},
			phases: []phase{
				// Six requests coalesce into one batch on the faulty build 0:
				// evict, split, evict build 1, recover on the first clean build.
				{label: "coalesced burst on faulty engines", shape: chaosPrimary, clients: 6, requests: 6, attempts: 20},
				// Every build dies: consecutive failures trip the breaker and the
				// degraded fresh-plan path takes over.
				{label: "doomed shape trips the breaker", shape: chaosSecond, clients: 1, requests: 4, attempts: 20},
				{label: "steady verified load", shape: chaosPrimary, clients: 6, requests: 128, smoke: 32, attempts: 20},
			},
			require: func(st serve.Stats) []counter {
				r := st.Recovery
				return []counter{
					{"server-side retry", r.Retries}, {"batch split", r.BatchSplits},
					{"fault eviction", r.FaultEvictions}, {"breaker trip", r.BreakerTrips},
					{"degraded execution", r.DegradedRequests},
				}
			},
		}, {
			// Engines write results straight into the requests' arrays. A kill
			// entering the output reshape's last chunk fails a batch after every
			// rank has written its first chunk there: the server puts the inputs
			// back, and with no client retry allowed its own retry must start
			// from them.
			cfg: serve.Config{MaxRetries: 2, Comm: outputKillComm},
			faults: func(seed int64, _ string, build int, _ []int) *heffte.FaultPlan {
				if build > 0 {
					return nil
				}
				r := int(seed % chaosRanks)
				return &heffte.FaultPlan{Timeout: 0.25, Events: []heffte.FaultEvent{
					{Kind: heffte.FaultKill, Rank: r, Op: lastExchangeOp(chaosPrimary, r, outputKillComm)},
				}}
			},
			phases: []phase{{label: "kill in the output reshape, inputs restored", shape: chaosPrimary, clients: 4, requests: 4, attempts: 1}},
			require: func(st serve.Stats) []counter {
				return []counter{{"retry after an output-reshape kill", st.Recovery.Retries}}
			},
		}},
	},
	{
		// A bit-flipping GPU pinned to a physical slot corrupts wire payloads
		// and device bricks with the integrity defenses armed: checksummed
		// transport retransmits, ABFT invariants re-execute the phase, the
		// health ledger quarantines the slot and rebuilds engines around it.
		name:      "sdc",
		about:     "silent bit flips on one GPU slot: retransmit, phase re-execution, quarantine rebuild, typed exhaustion",
		slotKeyed: true,
		stages: []stage{
			{
				// Slot 1 flips one bit in every block it sends (one retransmit
				// heals it) and in its device brick between phases (one phase
				// re-execution heals it). No client retry is allowed: requests
				// keep succeeding bit-exactly while suspicion piles onto the
				// slot until quarantine rebuilds around it.
				cfg:    sdcConfig(2),
				faults: sdcFaults(1, 1),
				phases: []phase{{label: "repairable flips under verified load", shape: chaosPrimary, clients: 4, requests: 64, smoke: 24, attempts: 1}},
				require: func(st serve.Stats) []counter {
					in := st.Integrity
					return []counter{
						{"envelope mismatch", uint64(in.Totals.ChecksumMismatches)}, {"retransmit", uint64(in.Totals.Retransmits)},
						{"invariant failure", uint64(in.Totals.InvariantFailures)}, {"phase re-execution", uint64(in.Totals.PhaseReexecs)},
						{"quarantine", in.Quarantines}, {"quarantine rebuild", in.QuarantineRebuilds},
					}
				},
			},
			{
				// Slot 2's sends stay corrupt past the retransmit budget: the
				// batch fails with the typed sentinel (never wrong data), the
				// failed run's suspicion quarantines the slot, and the
				// server-side retry succeeds on an engine rebuilt around it.
				cfg:    sdcConfig(2),
				faults: sdcFaults(2, 4),
				phases: []phase{{label: "budget exhaustion, then surgical rebuild", shape: chaosPrimary, clients: 1, requests: 1, attempts: 1}},
				require: func(st serve.Stats) []counter {
					return []counter{{"server-side retry after exhaustion", st.Recovery.Retries}, {"quarantine after exhaustion", st.Integrity.Quarantines}}
				},
			},
			{
				// With server retries off the client sees the sentinel, not data.
				cfg:    sdcConfig(-1),
				faults: sdcFaults(3, 4),
				phases: []phase{{label: "no-retry probe of the typed sentinel", shape: chaosPrimary, clients: 1, requests: 1, attempts: 1, want: heffte.ErrRetransmitExhausted}},
			},
		},
	},
	{
		// Kill storms against a Config.Elastic server: a rank kill mid-batch
		// shrinks the engine's world to its survivors and finishes the batch
		// from its last phase checkpoint (Resumed), while fault storms with no
		// dead rank have nothing to shrink to and fall back through
		// evict-and-rebuild (Restarted).
		name:  "elastic",
		about: "rank kills against an elastic server: shrink + resume in place, restart fallback, capacity ledger",
		stages: []stage{{
			cfg: serve.Config{Elastic: true, MaxRetries: 3, BreakerThreshold: 4, BreakerCooldown: 50 * time.Millisecond},
			// Primary, build 0 only: a kill at rank 1's second exchange
			// (mid-pipeline, checkpoints exist) and one queued deep on rank 3's
			// op counter, which survives the first shrink remapped onto the
			// survivor world and fires batches later — two resumes, two epochs.
			// Storm shape, first two builds: a seeded mix of drops, stalls and
			// detected corruptions plus one guaranteed first-exchange drop.
			faults: func(seed int64, shape string, build int, _ []int) *heffte.FaultPlan {
				switch {
				case isShape(shape, chaosPrimary) && build == 0:
					return &heffte.FaultPlan{Timeout: 0.5, Events: []heffte.FaultEvent{
						{Kind: heffte.FaultKill, Rank: 1, Op: 1},
						{Kind: heffte.FaultKill, Rank: 3, Op: 9},
					}}
				case isShape(shape, chaosSecond) && build < 2:
					p := heffte.GenerateFaults(seed+int64(build)*104729, chaosRanks, heffte.FaultConfig{
						Stalls: 1, Drops: 1, Corrupts: 1, OpHorizon: 6, Timeout: 0.25,
					})
					p.Events = append(p.Events, heffte.FaultEvent{Kind: heffte.FaultDrop, Rank: build % chaosRanks, Op: 0})
					return p
				}
				return nil
			},
			phases: []phase{
				// Four requests land on the armed build 0 as one batch; the kill
				// interrupts it and the survivors finish it — no eviction, no
				// client-visible failure.
				{label: "kill mid-batch, shrink + resume in place", shape: chaosPrimary, clients: 4, requests: 4, attempts: 20},
				{label: "non-kill storm falls back to restart", shape: chaosSecond, clients: 1, requests: 3, attempts: 20},
				// The second queued kill fires mid-load on the epoch-1 world.
				{label: "steady load across the second shrink", shape: chaosPrimary, clients: 4, requests: 96, smoke: 32, attempts: 20},
			},
			require: func(st serve.Stats) []counter {
				r := st.Recovery
				return []counter{
					{"resumed batch", r.Resumed}, {"restarted batch", r.Restarted},
					{"fault eviction", r.FaultEvictions}, {"lost slot", uint64(len(r.LostSlots))},
				}
			},
			// The primary engine must still be resident, on a survivor world.
			check: func(st serve.Stats) error {
				for _, es := range st.Engines {
					if !isShape(es.Shape, chaosPrimary) {
						continue
					}
					if es.Epoch < 1 || es.Ranks >= chaosRanks || es.Resumed < 1 {
						return fmt.Errorf("primary engine %s: epoch %d ranks %d resumed %d, want a resumed survivor world",
							es.Shape, es.Epoch, es.Ranks, es.Resumed)
					}
					return nil
				}
				return errors.New("primary engine missing from stats (evicted instead of resumed?)")
			},
		}},
	},
}

// outputKillComm splits every exchange in two serial chunks, so the output
// reshape has written part of the results when its second chunk fails.
var outputKillComm = heffte.CommConfig{Chunks: 2, Overlap: heffte.OverlapOff}

// lastExchangeOp is the index of rank's last fault-visible operation in one
// batch of global on a chaos engine under comm: the last chunk of the output
// reshape.
func lastExchangeOp(global [3]int, rank int, comm heffte.CommConfig) int {
	ops := 0
	heffte.NewWorld(heffte.Summit(), chaosRanks, heffte.WorldOptions{GPUAware: true}).Run(func(c *heffte.Comm) {
		plan, err := heffte.NewPlan(c, heffte.Config{Global: global, Opts: heffte.Options{Comm: comm}})
		if err != nil {
			panic(err)
		}
		if c.Rank() == rank {
			for _, ph := range plan.CommPhases() {
				if ph.GroupSize > 0 {
					ops += ph.Chunks
				}
			}
		}
	})
	return ops - 1
}

// sdcConfig arms the integrity defenses; retries < 0 turns server retries off.
func sdcConfig(retries int) serve.Config {
	return serve.Config{MaxRetries: retries,
		Integrity: heffte.IntegrityConfig{Checksums: true, Invariants: true}}
}

// sdcFaults is the schedule of a bad GPU on badSlot: the rank occupying it
// has every send silently corrupted (count consecutive corrupt transmissions
// per block) and its device brick flipped once between the first FFT phases.
// Engines placed away from badSlot run clean.
func sdcFaults(badSlot, count int) func(int64, string, int, []int) *heffte.FaultPlan {
	return func(_ int64, _ string, _ int, slots []int) *heffte.FaultPlan {
		for r, sl := range slots {
			if sl != badSlot {
				continue
			}
			fp := &heffte.FaultPlan{Timeout: 1}
			for op := 0; op < 64; op++ {
				fp.Events = append(fp.Events, heffte.FaultEvent{Kind: heffte.FaultCorruptSilent, Rank: r, Op: op, Count: count})
			}
			fp.Events = append(fp.Events, heffte.FaultEvent{Kind: heffte.FaultCorruptSilent, Brick: true, Rank: r, Op: 0, Count: 1})
			return fp
		}
		return nil
	}
}

func lookupScenario(name string) *scenario {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// harness is the state of one scenario run: per-shape pristine inputs and
// clean-run references, and the client-side tallies.
type harness struct {
	outMu           sync.Mutex // engine builds report from server goroutines
	out             io.Writer
	sc              *scenario
	seed            int64
	smoke           bool
	tag             string
	input, expected map[[3]int][]complex128
	phases          int

	lost, mismatched, clientRetries atomic.Int64
}

func (sc *scenario) run(out io.Writer, seed int64, smoke bool) error {
	h := &harness{out: out, sc: sc, seed: seed, smoke: smoke, tag: "chaos-" + sc.name,
		input: map[[3]int][]complex128{}, expected: map[[3]int][]complex128{}}
	// One seeded input and one reference per shape, in order of first use. The
	// spectrum is decomposition-independent and recovery is bit-identical to a
	// clean run by construction, so a single reference — computed on the
	// one-plan-per-request path — verifies every phase.
	reference := perPlanExecutor(heffte.Summit(), chaosRanks)
	rng := rand.New(rand.NewSource(seed))
	for _, sg := range sc.stages {
		for _, ph := range sg.phases {
			g := ph.shape
			if h.input[g] != nil {
				continue
			}
			in := make([]complex128, g[0]*g[1]*g[2])
			for i := range in {
				in[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
			}
			ref := append([]complex128(nil), in...)
			if err := reference(g, ref); err != nil {
				return fmt.Errorf("reference transform for %v: %w", g, err)
			}
			h.input[g], h.expected[g] = in, ref
		}
	}

	var summary []string
	for i := range sc.stages {
		fired, err := h.stage(&sc.stages[i])
		if err != nil {
			return err
		}
		for _, c := range fired {
			summary = append(summary, fmt.Sprintf("%s=%d", c.name, c.got))
		}
	}
	if lost, bad := h.lost.Load(), h.mismatched.Load(); lost != 0 || bad != 0 {
		return fmt.Errorf("%d lost, %d corrupted responses", lost, bad)
	}
	fmt.Fprintf(out, "%s OK seed=%d (0 lost, 0 corrupted; %s)\n", strings.ToUpper(h.tag), seed, strings.Join(summary, ", "))
	return nil
}

func (h *harness) printf(format string, args ...any) {
	h.outMu.Lock()
	defer h.outMu.Unlock()
	fmt.Fprintf(h.out, h.tag+": "+format, args...)
}

// stage serves the stage's phases from one server and checks its stats; it
// returns the required counters, all of which fired.
func (h *harness) stage(sg *stage) ([]counter, error) {
	cfg := sg.cfg
	cfg.Ranks, cfg.Window, cfg.MaxBatch, cfg.Workers = chaosRanks, 3*time.Millisecond, 8, 2
	cfg.RetryBackoff, cfg.RetryBackoffCap = 100*time.Microsecond, time.Millisecond
	cfg.EngineFaults = func(shape string, build int, slots []int) *heffte.FaultPlan {
		plan := sg.faults(h.seed, shape, build, slots)
		if plan != nil || h.sc.slotKeyed {
			on := ""
			if h.sc.slotKeyed {
				on = fmt.Sprintf(" on slots %v", slots)
			}
			h.printf("engine build %d for %s%s: %s [fingerprint %s]\n", build, shape, on, plan, plan.Fingerprint())
		}
		return plan
	}
	srv := serve.New(cfg)
	defer srv.Close()
	for _, ph := range sg.phases {
		h.phases++
		h.printf("phase %d — %s\n", h.phases, ph.label)
		if err := h.load(srv, ph); err != nil {
			return nil, err
		}
	}

	st := srv.Stats()
	h.printf("%d client retries, %d lost, %d corrupted\n", h.clientRetries.Load(), h.lost.Load(), h.mismatched.Load())
	h.outMu.Lock()
	st.WriteText(h.out)
	h.outMu.Unlock()
	var fired []counter
	if sg.require != nil {
		fired = sg.require(st)
	}
	for _, c := range fired {
		if c.got == 0 {
			return nil, fmt.Errorf("expected at least one %s, got none", c.name)
		}
	}
	if sg.check != nil {
		if err := sg.check(st); err != nil {
			return nil, err
		}
	}
	return fired, nil
}

// load runs one phase: client c submits requests c, c+clients, … one after
// another and stops at its first failure.
func (h *harness) load(srv *serve.Server, ph phase) error {
	total := ph.requests
	if h.smoke && ph.smoke > 0 {
		total = ph.smoke
	}
	errs := make([]error, ph.clients)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]complex128, len(h.input[ph.shape]))
			for i := c; i < total && errs[c] == nil; i += ph.clients {
				errs[c] = h.submitVerified(srv, ph, buf)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// submitVerified drives one request to its end: fault-class failures are
// retried from pristine input (a failed batch leaves Data as submitted) while
// attempts remain, and every success is checked against the reference.
func (h *harness) submitVerified(srv *serve.Server, ph phase, buf []complex128) error {
	g := ph.shape
	for attempt := 1; ; attempt++ {
		copy(buf, h.input[g])
		err := srv.Submit(context.Background(), &serve.Request{Global: g, Data: buf})
		switch {
		case ph.want != nil:
			if !errors.Is(err, ph.want) {
				return fmt.Errorf("submit for %v = %v, want %v", g, err, ph.want)
			}
			return nil
		case err == nil:
			if !slices.Equal(buf, h.expected[g]) {
				h.mismatched.Add(1)
				return fmt.Errorf("corrupted response for %v", g)
			}
			return nil
		case !heffte.IsFault(err):
			return fmt.Errorf("non-fault failure for %v: %w", g, err)
		case attempt == ph.attempts:
			h.lost.Add(1)
			return fmt.Errorf("request for %v lost after %d attempts: %w", g, attempt, err)
		}
		h.clientRetries.Add(1)
	}
}
