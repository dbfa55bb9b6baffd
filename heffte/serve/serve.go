package serve

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/heffte"
	"repro/internal/sched"
)

// Direction selects the transform applied to a request.
type Direction int

const (
	// Forward applies the forward transform (Plan.ForwardGlobal).
	Forward Direction = iota
	// Inverse applies the inverse transform, scaled by 1/N.
	Inverse
)

func (d Direction) String() string {
	if d == Inverse {
		return "inverse"
	}
	return "forward"
}

// Request is one transform submitted to a Server. Data is the full global
// row-major N0×N1×N2 array (axis 2 contiguous) and is transformed in place.
//
// Ownership: the server owns Data from Submit until Submit returns — with
// one exception. Data is never copied: the input reshape reads it, the output
// reshape writes it, and a failed batch leaves it as submitted. If the
// request's context ends while its batch is already executing, Submit returns
// early and the batch keeps using Data until it completes; such callers must
// drop the buffer rather than reuse it immediately (Server.Stats' InFlight
// reaching zero guarantees quiescence).
type Request struct {
	// Global is the transform extents (N0, N1, N2); all must be positive.
	Global [3]int
	// Decomp selects the decomposition; DecompAuto resolves via the paper's
	// bandwidth model, and is itself part of the shape key.
	Decomp heffte.Decomposition
	// Direction of the transform.
	Direction Direction
	// Data is the global array, len == N0·N1·N2, transformed in place.
	Data []complex128
}

// Config tunes a Server. Zero fields take the documented defaults. Engines
// run on the Summit machine model with block placement.
type Config struct {
	// Ranks is the world size of each resident engine (default 8).
	Ranks int
	// NoGPUAware disables GPU-aware MPI in the engines (mirrors heFFTe's
	// -no-gpu-aware flag; the default is GPU-aware on).
	NoGPUAware bool
	// Comm configures the collective exchanges of every engine plan:
	// all-to-all algorithm, chunk count, pack/exchange overlap, and wire
	// precision (Comm.Wire compresses interior exchange payloads to fp32 or
	// fp16). The zero value is fully automatic; what each shape resolved to
	// shows up in Stats (EngineStats.Comm).
	Comm heffte.CommConfig

	// Window is how long the first request of a batch waits for same-shape
	// company (default 200µs; negative = no waiting). Batches are cut when a
	// worker frees up, so under load coalescing continues past the window up
	// to MaxBatch.
	Window time.Duration
	// MaxBatch caps requests fused into one engine execution (default 16).
	MaxBatch int
	// Workers bounds concurrently executing batches (default 2).
	Workers int
	// MaxQueue bounds admitted-but-unstarted requests; beyond it Submit
	// fast-fails with heffte.ErrOverloaded (default 256).
	MaxQueue int

	// MaxRetries bounds how many times a fault-failed batch is re-attempted
	// (with engine rebuild, backoff, and batch splitting) before the failure
	// is returned to submitters (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the base delay before the first retry; each level
	// doubles it up to RetryBackoffCap, with ±25% jitter (defaults 200µs and
	// 5ms).
	RetryBackoff    time.Duration
	RetryBackoffCap time.Duration
	// BreakerThreshold consecutive fault-failed batches of one shape trip its
	// circuit breaker (default 3); while open, the shape's requests execute
	// degraded — a fresh clean world and plan per request — instead of on
	// cached engines. After BreakerCooldown (default 25ms) the next batch
	// probes the normal path and closes the breaker on success.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// EngineFaults, if set, supplies the fault plan injected into the n'th
	// engine built for a shape (nil = clean engine), given the engine's
	// rank→GPU-slot map. It is the chaos-testing hook: deterministic schedules
	// (heffte.GenerateFaults) keyed on the build counter exercise the whole
	// recovery path reproducibly, and a schedule keyed on slots pins a "bad
	// GPU" that keeps corrupting whichever rank lands on it — and stops once
	// quarantine rebuilds engines away from it.
	EngineFaults func(shape string, build int, slots []int) *heffte.FaultPlan

	// Integrity arms the silent-data-corruption defenses on every engine
	// world (and the degraded path): checksummed transport envelopes with
	// bounded retransmit, and the transform engine's ABFT phase invariants
	// with phase-scoped re-execution. The zero value disables both.
	Integrity heffte.IntegrityConfig

	// Elastic arms shrink-to-survivors recovery on every engine: executions
	// stage phase checkpoints (a modeled virtual-time cost), and a batch that
	// loses a rank mid-flight first attempts to shrink the engine's world to
	// the survivors and resume from the last completed phase — keeping the
	// engine resident at reduced capacity — before falling back to the
	// evict-and-rebuild retry path. RecoveryStats.Resumed / .Restarted report
	// which path recovered each fault-failed batch.
	Elastic bool
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 8
	}
	if c.Window == 0 {
		c.Window = 200 * time.Microsecond
	}
	if c.Window < 0 {
		c.Window = 0
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 200 * time.Microsecond
	}
	if c.RetryBackoffCap <= 0 {
		c.RetryBackoffCap = 5 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 25 * time.Millisecond
	}
	return c
}

// Server is a long-lived, concurrent FFT service: many goroutines Submit
// independent requests; the server coalesces same-shape requests into fused
// batched executions on resident engines. Create with New, stop with Close.
type Server struct {
	cfg    Config
	sched  *sched.Scheduler[*Request]
	cache  *engineCache
	closed atomic.Bool
	rec    recovery
	health health
}

// cacheShapes bounds resident engines (worlds + plans) in the LRU plan cache.
const cacheShapes = 4

// New starts a server (its worker pool runs until Close).
func New(cfg Config) *Server { return newServer(cfg, cacheShapes) }

// newServer is New with the plan cache's capacity given.
func newServer(cfg Config, shapes int) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg}
	s.rec.breakers = map[string]*breaker{}
	s.rec.builds = map[string]int{}
	s.health.suspicion = map[int]int64{}
	s.health.quarantined = map[int]bool{}
	s.cache = newEngineCache(shapes, func(k engineKey) (*engine, error) {
		place, slots := s.placementFor(k.ranks)
		var fp *heffte.FaultPlan
		if cfg.EngineFaults != nil {
			fp = cfg.EngineFaults(k.String(), s.nextBuild(k.String()), slots)
		}
		return newEngine(k, engineWorldOpts(cfg, fp, place), cfg.Comm, slots, cfg.Elastic)
	})
	s.sched = sched.New[*Request](sched.Config{
		Workers:  cfg.Workers,
		MaxQueue: cfg.MaxQueue,
		Window:   cfg.Window,
		MaxBatch: cfg.MaxBatch,
	}, s.runBatch)
	return s
}

// Submit executes one transform, blocking until it completed, was rejected
// (heffte.ErrOverloaded), or ctx ended (heffte.ErrDeadlineExceeded when the
// deadline passed before the batch started). Safe for concurrent use from
// any number of goroutines; same-shape concurrent requests coalesce into
// fused batches with results bit-identical to sequential execution.
func (s *Server) Submit(ctx context.Context, req *Request) error {
	if s.closed.Load() {
		return fmt.Errorf("serve: %w", heffte.ErrServerClosed)
	}
	if err := validateRequest(req); err != nil {
		return err
	}
	return s.sched.Submit(ctx, shapeKey(req, s.cfg.Ranks), req)
}

func validateRequest(req *Request) error {
	if req == nil {
		return fmt.Errorf("serve: %w: nil request", heffte.ErrBadConfig)
	}
	vol := 1
	for d := 0; d < 3; d++ {
		if req.Global[d] < 1 {
			return fmt.Errorf("serve: %w: invalid global grid %v", heffte.ErrBadConfig, req.Global)
		}
		vol *= req.Global[d]
	}
	if len(req.Data) != vol {
		return fmt.Errorf("serve: %w: data length %d != global volume %d", heffte.ErrBadConfig, len(req.Data), vol)
	}
	if req.Direction != Forward && req.Direction != Inverse {
		return fmt.Errorf("serve: %w: invalid direction %d", heffte.ErrBadConfig, int(req.Direction))
	}
	switch req.Decomp {
	case heffte.DecompAuto, heffte.DecompSlabs, heffte.DecompPencils, heffte.DecompBricks:
	default:
		return fmt.Errorf("serve: %w: invalid decomposition %d", heffte.ErrBadConfig, int(req.Decomp))
	}
	return nil
}

// shapeKey is the coalescing key: requests fuse only when every part of it
// matches (batched execution requires one plan and one direction).
func shapeKey(req *Request, ranks int) string {
	return fmt.Sprintf("%dx%dx%d/%s/r%d/%s",
		req.Global[0], req.Global[1], req.Global[2], req.Decomp, ranks, req.Direction)
}

func engineKeyFor(req *Request, ranks int) engineKey {
	return engineKey{global: req.Global, decomp: req.Decomp, ranks: ranks}
}

// CacheStats describes the engine/plan LRU cache.
type CacheStats struct {
	Capacity  int
	Resident  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// EngineStats describes one resident engine.
type EngineStats struct {
	// Shape is the engine's cache key; engines that shrank carry an
	// "@e<epoch>(r<ranks>)" suffix showing the survivor world they run on.
	Shape string
	// Epoch is the engine world's epoch: 0 for a fresh world, +1 per elastic
	// shrink it survived.
	Epoch int
	// Ranks is the engine's current world size (the survivor count after
	// elastic shrinks).
	Ranks    int
	Batches  uint64
	Requests uint64
	// Resumed counts batches this engine finished via shrink+resume.
	Resumed uint64
	// VirtualSeconds is the engine's rank-0 virtual clock: the simulated
	// busy time it spent executing batches.
	VirtualSeconds float64
	// Comm reports, per reshape phase, the collective configuration this
	// shape's plan resolved to: chosen all-to-all algorithm, chunk count,
	// and whether the chunks pipeline pack with the in-flight exchange.
	Comm []heffte.CommPhase
}

// Stats is a point-in-time snapshot of the server: per-shape scheduler
// counters (submitted/coalesced/rejected/deadline-exceeded, batch-size and
// latency histograms) plus plan-cache and engine state.
type Stats struct {
	Scheduler sched.Stats
	Cache     CacheStats
	Engines   []EngineStats
	Recovery  RecoveryStats
	Integrity IntegrityStats
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	cs, es := s.cache.stats()
	sort.Slice(es, func(i, j int) bool { return es[i].Shape < es[j].Shape })
	return Stats{Scheduler: s.sched.Stats(), Cache: cs, Engines: es,
		Recovery: s.recoveryStats(), Integrity: s.integrityStats()}
}

// WriteText renders the snapshot as a human-readable report.
func (st Stats) WriteText(w io.Writer) {
	st.Scheduler.WriteText(w)
	fmt.Fprintf(w, "plan cache: %d/%d resident  hits %d  misses %d  evictions %d\n",
		st.Cache.Resident, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions)
	for _, e := range st.Engines {
		fmt.Fprintf(w, "  engine %s: %d batches, %d requests, %.3fs virtual busy\n",
			e.Shape, e.Batches, e.Requests, e.VirtualSeconds)
		if len(e.Comm) > 0 {
			fmt.Fprintf(w, "    comm:")
			for _, ph := range e.Comm {
				fmt.Fprintf(w, " %s=%s", ph.Label, ph.Algo)
				if ph.Wire != heffte.WireFp64 {
					fmt.Fprintf(w, "@%s", ph.Wire)
				}
				if ph.Schedule != "" && ph.Schedule != "flat" {
					fmt.Fprintf(w, "[%s]", ph.Schedule)
				}
				if ph.Chunks > 1 {
					pipe := "serial"
					if ph.Overlap {
						pipe = "pipelined"
					}
					fmt.Fprintf(w, "/%d-chunk-%s", ph.Chunks, pipe)
				}
			}
			fmt.Fprintln(w)
		}
	}
	r := st.Recovery
	if r.Retries > 0 || r.FaultEvictions > 0 || r.BreakerTrips > 0 || r.DegradedRequests > 0 || r.Resumed > 0 {
		fmt.Fprintf(w, "recovery: %d retries (%d batch splits), %d fault evictions, %d breaker trips, %d degraded requests\n",
			r.Retries, r.BatchSplits, r.FaultEvictions, r.BreakerTrips, r.DegradedRequests)
		if r.Resumed > 0 || r.Restarted > 0 {
			fmt.Fprintf(w, "  elastic: %d resumed, %d restarted", r.Resumed, r.Restarted)
			if len(r.LostSlots) > 0 {
				fmt.Fprintf(w, ", lost slots %v", r.LostSlots)
			}
			fmt.Fprintln(w)
		}
		keys := make([]string, 0, len(r.Breakers))
		for k := range r.Breakers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  breaker %s: %s\n", k, r.Breakers[k])
		}
	}
	in := st.Integrity
	if t := in.Totals; t.ChecksumChecks > 0 || t.InvariantChecks > 0 || in.Quarantines > 0 {
		fmt.Fprintf(w, "integrity: %d envelope checks (%d mismatches, %d retransmits), %d invariant checks (%d failures, %d phase re-execs)\n",
			t.ChecksumChecks, t.ChecksumMismatches, t.Retransmits,
			t.InvariantChecks, t.InvariantFailures, t.PhaseReexecs)
		if in.Quarantines > 0 {
			fmt.Fprintf(w, "  quarantined slots %v (%d engine rebuilds)\n",
				in.QuarantinedSlots, in.QuarantineRebuilds)
		}
	}
}

// WriteStats writes the current snapshot as text.
func (s *Server) WriteStats(w io.Writer) { s.Stats().WriteText(w) }

// Close drains queued requests, stops the workers, and shuts down every
// resident engine. Submits after Close fail with heffte.ErrServerClosed.
func (s *Server) Close() {
	s.closed.Store(true)
	s.sched.Close()
	s.cache.closeAll()
}
