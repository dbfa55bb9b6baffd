package heffte

import (
	"repro/internal/core"
	"repro/internal/mpisim"
	"repro/internal/sched"
)

// Typed sentinel errors. Plan constructors and the serving layer wrap these
// with context (%w), so callers classify failures with errors.Is instead of
// string matching:
//
//	if _, err := heffte.NewPlan(c, cfg); errors.Is(err, heffte.ErrBadConfig) {
//	    // fix the configuration, not the boxes
//	}
//
//	if err := srv.Submit(ctx, req); errors.Is(err, heffte.ErrOverloaded) {
//	    // shed load or retry with backoff
//	}
var (
	// ErrBadConfig marks an invalid plan configuration (non-positive
	// extents, a pencil grid that does not factor the rank count, an odd N2
	// for a real-to-complex plan, an unresolved decomposition).
	ErrBadConfig = core.ErrBadConfig
	// ErrMismatchedBoxes marks inconsistent data distributions (box lists
	// sized unlike the communicator, boxes that do not tile the grid).
	ErrMismatchedBoxes = core.ErrMismatchedBoxes
	// ErrPlanClosed is returned when executing a plan after Close.
	ErrPlanClosed = core.ErrPlanClosed

	// ErrOverloaded is the serving layer's admission-control fast-fail: the
	// server's bounded request queue is full and the request was rejected
	// without waiting (serve.Server.Submit).
	ErrOverloaded = sched.ErrOverloaded
	// ErrDeadlineExceeded marks a served request whose context deadline
	// expired before its batch started executing. It matches
	// context.DeadlineExceeded through errors.Is as well.
	ErrDeadlineExceeded = sched.ErrDeadlineExceeded
	// ErrServerClosed is returned by Submit on a server that has been shut
	// down.
	ErrServerClosed = sched.ErrClosed

	// ErrRankFailed marks a transform aborted because a rank of its world was
	// killed mid-exchange (fault injection, or a rank function panicking into
	// the abort path). Every survivor observes it; the world is unusable
	// afterwards and the serving layer evicts engines built on it.
	ErrRankFailed = mpisim.ErrRankFailed
	// ErrMessageCorrupt marks a payload corrupted in transit, detected on
	// receipt.
	ErrMessageCorrupt = mpisim.ErrMessageCorrupt
	// ErrExchangeTimeout marks an exchange whose wait exceeded the configured
	// per-exchange virtual-time bound: a dropped message or a straggler
	// stalled past the timeout surfaces as a bounded error, never a hang.
	ErrExchangeTimeout = mpisim.ErrExchangeTimeout
	// ErrRetransmitExhausted marks a checksummed block that stayed corrupt
	// through the whole per-exchange retransmit budget
	// (WorldOptions.Integrity with Checksums on): the link is feeding garbage
	// faster than the transport can repair it.
	ErrRetransmitExhausted = mpisim.ErrRetransmitExhausted
	// ErrIntegrity marks an ABFT phase invariant that kept failing after
	// phase-scoped re-execution (WorldOptions.Integrity with Invariants on):
	// the data is provably corrupt and cannot be repaired locally. Carries
	// rank and phase context.
	ErrIntegrity = mpisim.ErrIntegrity
	// ErrShrunk marks an operation on a world that has already been shrunk
	// to its survivors (World.Shrink): the handle is superseded, and callers
	// racing a concurrent elastic recovery should retry on the successor
	// world.
	ErrShrunk = mpisim.ErrShrunk
)

// IsFault reports whether err wraps one of the injected-fault sentinels
// (ErrRankFailed, ErrMessageCorrupt, ErrExchangeTimeout,
// ErrRetransmitExhausted, ErrIntegrity) — the transient,
// infrastructure-class failures the serving layer retries, as opposed to
// configuration errors it fails immediately.
func IsFault(err error) bool { return mpisim.IsFault(err) }
