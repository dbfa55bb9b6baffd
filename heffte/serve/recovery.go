package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/heffte"
	"repro/internal/sched"
)

// Fault recovery. A batch that fails with a fault-class error (rank killed,
// message corrupt, exchange timeout — heffte.IsFault) is retried: the dead
// engine is evicted so the retry rebuilds a fresh world, a capped exponential
// backoff with jitter spaces the attempts, and batches of more than one
// request split in half first, so a poison request fails alone while its
// batch-mates recover. Shapes whose batches keep failing trip a per-shape
// circuit breaker: while it is open, requests bypass the cached-engine path
// entirely and execute degraded — one fresh clean world per request — until
// the cooldown expires and a probe batch closes the breaker again.

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	state       int
	consecutive int       // consecutive fault-failed batches while closed
	openUntil   time.Time // open state expires into half-open
}

func (b *breaker) name() string {
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// recovery is the server's fault-recovery state: per-shape breakers, the
// per-shape engine build counter (feeding Config.EngineFaults), and the
// counters surfaced in Stats.
type recovery struct {
	mu       sync.Mutex
	breakers map[string]*breaker
	builds   map[string]int

	retries        uint64
	splits         uint64
	faultEvictions uint64
	degraded       uint64
	trips          uint64
	resumed        uint64
	restarted      uint64
}

// nextBuild returns (and advances) the build counter for a shape: how many
// engines have been constructed for it, counting this one.
func (s *Server) nextBuild(shape string) int {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	n := s.rec.builds[shape]
	s.rec.builds[shape] = n + 1
	return n
}

// breakerOpen reports whether the shape's breaker currently routes batches to
// the degraded path, transitioning open → half-open once the cooldown expired
// (the caller's batch becomes the probe).
func (s *Server) breakerOpen(key string) bool {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	b := s.rec.breakers[key]
	if b == nil || b.state != breakerOpen {
		return false
	}
	if time.Now().Before(b.openUntil) {
		return true
	}
	b.state = breakerHalfOpen
	return false
}

// recordOutcome feeds one normal-path batch result into the shape's breaker.
func (s *Server) recordOutcome(key string, err error) {
	faulty := isFaultOutcome(err)
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	b := s.rec.breakers[key]
	if b == nil {
		b = &breaker{}
		s.rec.breakers[key] = b
	}
	if !faulty {
		b.consecutive = 0
		b.state = breakerClosed
		return
	}
	b.consecutive++
	if b.state == breakerHalfOpen || b.consecutive >= s.cfg.BreakerThreshold {
		s.rec.trips++
		b.state = breakerOpen
		b.openUntil = time.Now().Add(s.cfg.BreakerCooldown)
		b.consecutive = 0
	}
}

// isFaultOutcome reports whether a batch outcome involves a fault-class
// failure (directly, or in any item of a per-item BatchErrors result).
func isFaultOutcome(err error) bool {
	if err == nil {
		return false
	}
	var be *sched.BatchErrors
	if errors.As(err, &be) {
		for _, e := range be.Errs {
			if e != nil && heffte.IsFault(e) {
				return true
			}
		}
		return false
	}
	return heffte.IsFault(err)
}

// runBatch is the scheduler's Runner: breaker check, then the recovering
// cached-engine path.
func (s *Server) runBatch(key string, reqs []*Request) error {
	if s.breakerOpen(key) {
		return s.runDegraded(reqs)
	}
	err := s.attempt(key, reqs, 0)
	s.recordOutcome(key, err)
	return err
}

// attempt executes the batch on the shape's cached engine, retrying
// fault-class failures up to Config.MaxRetries levels deep. A failed batch
// leaves request payloads as submitted (engine.execute), so retries always
// start from pristine data.
func (s *Server) attempt(key string, reqs []*Request, depth int) error {
	slot, err := s.cache.acquire(engineKeyFor(reqs[0], s.cfg.Ranks))
	if err != nil {
		err = fmt.Errorf("serve: engine for %s: %w", key, err)
		if !heffte.IsFault(err) || depth >= s.cfg.MaxRetries {
			return err
		}
		return s.retry(key, reqs, depth)
	}
	tk, execErr := slot.eng.execute(reqs[0].Direction, reqs)
	if len(reqs) > 1 && errors.Is(execErr, heffte.ErrBadConfig) {
		// Requests sharing an array cannot share a batch (the plan refuses it
		// before anything moves): they run one by one, in sequence.
		s.cache.release(slot)
		errs := make([]error, len(reqs))
		for i := range reqs {
			errs[i] = s.attempt(key, reqs[i:i+1], depth)
		}
		return perItem(errs)
	}
	if execErr != nil && heffte.IsFault(execErr) && s.cfg.Elastic {
		// Resume-first: try to finish the interrupted batch in place on the
		// engine's shrunken survivor world before giving the engine up.
		if rerr := s.elasticResume(slot.eng, tk, reqs[0].Direction, reqs); rerr == nil {
			execErr = nil
		}
	}
	if s.noteHealth(slot.eng) {
		// The health ledger quarantined a GPU slot this engine occupies:
		// invalidate it so the next build places ranks around the bad slot.
		s.cache.invalidate(slot)
	}
	if execErr != nil && heffte.IsFault(execErr) {
		// The engine's world is permanently failed (and, if elastic, not
		// resumable): evict it so this retry — and every other in-flight
		// batch on it — rebuilds on a fresh world.
		s.rec.mu.Lock()
		s.rec.restarted++
		s.rec.mu.Unlock()
		if s.cache.invalidate(slot) {
			s.rec.mu.Lock()
			s.rec.faultEvictions++
			s.rec.mu.Unlock()
		}
	}
	s.cache.release(slot)
	if execErr == nil || !heffte.IsFault(execErr) || depth >= s.cfg.MaxRetries {
		return execErr
	}
	return s.retry(key, reqs, depth)
}

// retry backs off and re-attempts, splitting multi-request batches in half so
// failures isolate to the smallest possible request set.
func (s *Server) retry(key string, reqs []*Request, depth int) error {
	s.rec.mu.Lock()
	s.rec.retries++
	if len(reqs) > 1 {
		s.rec.splits++
	}
	s.rec.mu.Unlock()
	s.backoff(depth)
	if len(reqs) > 1 {
		mid := len(reqs) / 2
		left := s.attempt(key, reqs[:mid], depth+1)
		right := s.attempt(key, reqs[mid:], depth+1)
		return combine(len(reqs), mid, left, right)
	}
	return s.attempt(key, reqs, depth+1)
}

// backoff sleeps the capped exponential delay for this retry depth, with
// ±25% jitter so synchronized failures do not retry in lockstep.
func (s *Server) backoff(depth int) {
	d := backoffDelay(s.cfg.RetryBackoff, s.cfg.RetryBackoffCap, depth)
	if d <= 0 {
		return
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	time.Sleep(d + jitter)
}

// backoffDelay is the capped exponential backoff: base doubled depth times,
// saturating at max. The doubling is clamped step by step — a single
// `base << depth` overflows time.Duration long before the cap comparison on
// deep retry chains, turning the delay negative (no backoff at all).
func backoffDelay(base, max time.Duration, depth int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max > 0 && base >= max {
		return max
	}
	d := base
	for i := 0; i < depth; i++ {
		next := d << 1
		if max > 0 && (next >= max || next <= 0) {
			return max
		}
		if next <= 0 {
			return d // uncapped: saturate at the last positive doubling
		}
		d = next
	}
	return d
}

// combine flattens the results of a split retry into one per-item error
// value aligned with the original batch (nil when both halves succeeded).
func combine(n, mid int, left, right error) error {
	if left == nil && right == nil {
		return nil
	}
	be := &sched.BatchErrors{Errs: make([]error, n)}
	fill := func(errs []error, err error) {
		var sub *sched.BatchErrors
		if errors.As(err, &sub) && len(sub.Errs) == len(errs) {
			copy(errs, sub.Errs)
			return
		}
		for i := range errs {
			errs[i] = err
		}
	}
	fill(be.Errs[:mid], left)
	fill(be.Errs[mid:], right)
	return be
}

// runDegraded is the graceful-degradation path behind an open breaker: each
// request executes alone on a throwaway clean world with a plan built just
// for it — no shared engine, no injected faults, a higher per-request cost,
// but isolated from whatever kept killing the cached engines.
func (s *Server) runDegraded(reqs []*Request) error {
	s.rec.mu.Lock()
	s.rec.degraded += uint64(len(reqs))
	s.rec.mu.Unlock()
	errs := make([]error, len(reqs))
	for i, req := range reqs {
		errs[i] = s.runFresh(req)
	}
	return perItem(errs)
}

// perItem is the batch outcome of per-request results: nil when all succeeded,
// else the per-item errors.
func perItem(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return &sched.BatchErrors{Errs: errs}
		}
	}
	return nil
}

// runFresh executes one request on a throwaway clean engine — the resident
// path's world → plan → execute, built for this request and closed after it.
// The world carries no injected faults, block placement and no checkpoints,
// but keeps the integrity defenses armed: degradation must never weaken the
// zero-wrong-answers guarantee.
func (s *Server) runFresh(req *Request) error {
	k := engineKeyFor(req, s.cfg.Ranks)
	eng, err := newEngine(k, engineWorldOpts(s.cfg, nil, heffte.Placement{}), s.cfg.Comm, nil, false)
	if err == nil {
		_, err = eng.execute(req.Direction, []*Request{req})
		eng.close()
	}
	if err != nil {
		return fmt.Errorf("serve: degraded execution: %w", err)
	}
	return nil
}

// RecoveryStats is the fault-recovery section of Stats.
type RecoveryStats struct {
	// Retries counts batch re-attempts after fault-class failures.
	Retries uint64
	// BatchSplits counts retries that split a multi-request batch in half.
	BatchSplits uint64
	// FaultEvictions counts engines evicted because their world failed.
	FaultEvictions uint64
	// DegradedRequests counts requests executed on the fresh-plan degraded
	// path behind an open breaker.
	DegradedRequests uint64
	// BreakerTrips counts closed/half-open → open transitions.
	BreakerTrips uint64
	// Resumed counts fault-failed batches recovered in place: the engine's
	// world shrank to its survivors and the batch finished from its last
	// completed phase checkpoint (Config.Elastic).
	Resumed uint64
	// Restarted counts fault-failed batches that went back through the
	// evict-and-rebuild retry path instead (elastic off, or the batch was
	// not resumable).
	Restarted uint64
	// LostSlots lists GPU slots lost to elastic shrinks, ascending.
	LostSlots []int
	// Breakers maps shape keys to breaker state ("closed", "open",
	// "half-open"); shapes that never failed are absent.
	Breakers map[string]string
}

func (s *Server) recoveryStats() RecoveryStats {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	rs := RecoveryStats{
		Retries:          s.rec.retries,
		BatchSplits:      s.rec.splits,
		FaultEvictions:   s.rec.faultEvictions,
		DegradedRequests: s.rec.degraded,
		BreakerTrips:     s.rec.trips,
		Resumed:          s.rec.resumed,
		Restarted:        s.rec.restarted,
		Breakers:         make(map[string]string, len(s.rec.breakers)),
	}
	for k, b := range s.rec.breakers {
		rs.Breakers[k] = b.name()
	}
	s.health.mu.Lock()
	for sl := range s.health.lost {
		rs.LostSlots = append(rs.LostSlots, sl)
	}
	s.health.mu.Unlock()
	sort.Ints(rs.LostSlots)
	return rs
}
