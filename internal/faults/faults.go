// Package faults is a deterministic fault-injection plan for the simulated
// MPI runtime (internal/mpisim). The paper's experiments ran on Summit and
// Spock, where slow links, stragglers and node failures are routine at
// 3072-GPU scale; this package lets the simulator reproduce those conditions
// on demand, with a schedule that is a pure function of a seed.
//
// A Plan is a list of Events, each targeting one (rank, op) coordinate:
// `op` is the victim rank's own count of fault-visible exchange operations
// (P2P sends and collective calls), which the simulator tracks per rank.
// Because virtual time in mpisim depends only on per-rank operation order,
// the same Plan applied to the same program produces the same fault at the
// same point in every run, regardless of Go scheduling — chaos runs replay.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// Stall adds Delay virtual seconds to each of Count consecutive ops,
	// turning the rank into a straggler. With an exchange timeout configured
	// a stall longer than the bound surfaces as ErrExchangeTimeout on the
	// peers stuck waiting for it.
	Stall Kind = iota
	// Jitter is a small Stall: latency noise, not an error source.
	Jitter
	// Degrade multiplies the communication cost of Count consecutive ops by
	// Factor, modeling a congested or degraded link.
	Degrade
	// Drop loses the next message the rank sends (P2P) or its blocks of the
	// next collective. Receivers observe ErrExchangeTimeout.
	Drop
	// Corrupt models *detected* corruption: the next message the rank sends
	// is flagged bad-on-arrival, as if a transport CRC had already caught it,
	// and receivers observe ErrMessageCorrupt without any payload bit
	// actually changing. It exercises error propagation, not data integrity.
	// Contrast CorruptSilent, which really flips delivered payload bits and
	// relies on the integrity subsystem (checksummed envelopes, ABFT phase
	// invariants) to notice.
	Corrupt
	// Kill fails the rank at the op: it raises ErrRankFailed and the whole
	// world aborts with that error, unblocking every survivor.
	Kill
	// CorruptSilent flips real payload bits in delivered buffers — a silent
	// data corruption. Nothing is flagged: unless checksummed transport or
	// ABFT invariants are enabled, the corrupted bytes reach the caller.
	// Count is the number of consecutive corrupt transmissions of the same
	// op (retransmits included), so Count above the retransmit budget defeats
	// the transport layer. With Brick set the event instead corrupts the
	// rank's local data between transform phases (device-memory flip) rather
	// than a wire block.
	CorruptSilent
)

func (k Kind) String() string {
	switch k {
	case Stall:
		return "stall"
	case Jitter:
		return "jitter"
	case Degrade:
		return "degrade"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Kill:
		return "kill"
	case CorruptSilent:
		return "corrupt-silent"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault: at the victim rank's Op'th fault-visible
// operation, the effect fires (and, for Stall/Jitter/Degrade, persists for
// Count ops).
type Event struct {
	Kind Kind
	Rank int // victim world rank
	Op   int // victim's operation index (0-based)

	Delay  float64 // Stall/Jitter: virtual seconds added per op
	Factor float64 // Degrade: cost multiplier (> 1)
	// Count: Stall/Jitter/Degrade — ops affected (min 1); CorruptSilent —
	// consecutive corrupt transmissions of the op (wire) or consecutive
	// corrupt execution attempts (Brick).
	Count int
	// Brick marks a CorruptSilent event as device-memory corruption: it
	// targets the victim's per-rank *probe* counter (advanced once per
	// transform-phase execution attempt) instead of the exchange op counter,
	// flipping bits in the rank's local brick between phases.
	Brick bool
}

func (e Event) span() int {
	if e.Count > 1 {
		return e.Count
	}
	return 1
}

// Plan is a reproducible fault schedule plus the per-exchange timeout bound
// the simulator enforces while the plan is active. The zero value injects
// nothing. Plans are immutable once handed to a world and safe for
// concurrent readers.
type Plan struct {
	// Timeout is the per-exchange virtual-time bound (seconds): a rank whose
	// wait inside one exchange exceeds it fails with ErrExchangeTimeout
	// instead of waiting forever. Zero leaves only dropped messages
	// timing out (immediately).
	Timeout float64
	Events  []Event
}

// Effect is the aggregate perturbation of one operation, precomputed from
// every event covering it.
type Effect struct {
	Kill    bool
	Drop    bool
	Corrupt bool
	Stall   float64 // extra virtual seconds before the op
	Factor  float64 // communication cost multiplier (0 or 1 = unchanged)
	// Silent is the number of consecutive silently-corrupted transmissions
	// of this op (0 = payload delivered intact). The first Silent sends —
	// the original plus Silent−1 retransmits — all arrive bit-flipped.
	Silent int
	// SilentSeed seeds the deterministic flip coordinates (which element,
	// which mantissa bit) so corrupted runs replay exactly.
	SilentSeed uint64
}

// Zero reports whether the effect perturbs nothing.
func (e Effect) Zero() bool {
	return !e.Kill && !e.Drop && !e.Corrupt && e.Silent == 0 &&
		e.Stall == 0 && (e.Factor == 0 || e.Factor == 1)
}

// Active reports whether the plan has any events at all (worlds skip the
// per-op lookup entirely for empty plans).
func (p *Plan) Active() bool { return p != nil && len(p.Events) > 0 }

// Effect returns the combined effect of every event covering the rank's
// op'th operation.
func (p *Plan) Effect(rank, op int) Effect {
	var eff Effect
	if p == nil {
		return eff
	}
	for _, e := range p.Events {
		if e.Rank != rank || op < e.Op {
			continue
		}
		switch e.Kind {
		case Kill:
			if op == e.Op {
				eff.Kill = true
			}
		case Drop:
			if op == e.Op {
				eff.Drop = true
			}
		case Corrupt:
			if op == e.Op {
				eff.Corrupt = true
			}
		case CorruptSilent:
			if op == e.Op && !e.Brick {
				eff.Silent += e.span()
				eff.SilentSeed = FlipSeed(rank, op)
			}
		case Stall, Jitter:
			if op < e.Op+e.span() {
				eff.Stall += e.Delay
			}
		case Degrade:
			if op < e.Op+e.span() {
				if eff.Factor == 0 {
					eff.Factor = 1
				}
				eff.Factor *= e.Factor
			}
		}
	}
	return eff
}

// BrickEffect reports whether the rank's op'th transform-phase execution
// attempt is silently corrupted by a Brick CorruptSilent event, and the seed
// of the deterministic flip. An event at Op with Count=c corrupts attempts
// Op..Op+c−1, so c consecutive execution attempts (the original plus c−1
// re-executions) all come out flipped — c above the re-execution budget
// defeats phase-scoped recovery.
func (p *Plan) BrickEffect(rank, op int) (bool, uint64) {
	if p == nil {
		return false, 0
	}
	for _, e := range p.Events {
		if e.Kind != CorruptSilent || !e.Brick || e.Rank != rank {
			continue
		}
		if op >= e.Op && op < e.Op+e.span() {
			return true, FlipSeed(rank, op)
		}
	}
	return false, 0
}

// FlipSeed derives the deterministic bit-flip coordinates of a silent
// corruption at a (rank, op) coordinate. Pure function of its inputs, so the
// same schedule flips the same bit of the same element in every run.
func FlipSeed(rank, op int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "flip/%d/%d", rank, op)
	return h.Sum64()
}

// Fingerprint returns a short content hash of the schedule, printed by chaos
// runs so "identical seed ⇒ identical fault schedule" is checkable from logs.
func (p *Plan) Fingerprint() string {
	if p == nil {
		return "clean"
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "t=%g;", p.Timeout)
	for _, e := range p.Events {
		fmt.Fprintf(h, "%d/%d/%d/%g/%g/%d;", e.Kind, e.Rank, e.Op, e.Delay, e.Factor, e.Count)
		// Brick events grow the encoding rather than change it, so plans
		// without them keep their pre-integrity fingerprints.
		if e.Brick {
			fmt.Fprintf(h, "b;")
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// String renders the schedule compactly, for logs and debugging.
func (p *Plan) String() string {
	if p == nil || len(p.Events) == 0 {
		return "faults: none"
	}
	parts := make([]string, 0, len(p.Events))
	for _, e := range p.Events {
		parts = append(parts, fmt.Sprintf("%s@r%d.op%d", e.Kind, e.Rank, e.Op))
	}
	return fmt.Sprintf("faults(timeout %gs): %s", p.Timeout, strings.Join(parts, " "))
}

// Config parameterizes Generate. Counts are event counts over the horizon;
// the zero value generates an empty plan.
type Config struct {
	// OpHorizon is the op-index range [0, OpHorizon) events are drawn from
	// (default 64). Set it to roughly the number of exchanges the victim
	// program performs so events actually land.
	OpHorizon int

	Stalls   int // straggler episodes, each delayed 3× the timeout so it trips the bound
	Drops    int // lost messages
	Corrupts int // corrupted messages (detected on receipt)
	Degrades int // degraded-link episodes

	// Timeout overrides the default per-exchange bound (1.0 virtual second).
	Timeout float64
}

// Generate derives a reproducible Plan from a seed: the same (seed, size,
// cfg) triple yields the identical schedule on every call and every machine.
func Generate(seed int64, size int, cfg Config) *Plan {
	rng := rand.New(rand.NewSource(seed))
	horizon := cfg.OpHorizon
	if horizon <= 0 {
		horizon = 64
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 1.0
	}
	stall := 3 * timeout
	p := &Plan{Timeout: timeout}
	add := func(n int, mk func() Event) {
		for i := 0; i < n; i++ {
			e := mk()
			e.Rank = rng.Intn(size)
			e.Op = rng.Intn(horizon)
			p.Events = append(p.Events, e)
		}
	}
	add(cfg.Stalls, func() Event { return Event{Kind: Stall, Delay: stall, Count: 1 + rng.Intn(3)} })
	add(cfg.Drops, func() Event { return Event{Kind: Drop} })
	add(cfg.Corrupts, func() Event { return Event{Kind: Corrupt} })
	add(cfg.Degrades, func() Event {
		return Event{Kind: Degrade, Factor: 2 + 6*rng.Float64(), Count: 2 + rng.Intn(6)}
	})
	// Deterministic order independent of the add sequence above.
	sort.SliceStable(p.Events, func(i, j int) bool {
		if p.Events[i].Rank != p.Events[j].Rank {
			return p.Events[i].Rank < p.Events[j].Rank
		}
		return p.Events[i].Op < p.Events[j].Op
	})
	return p
}
