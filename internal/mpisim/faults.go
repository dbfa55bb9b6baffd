package mpisim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/faults"
)

// Typed fault sentinels. Injected faults (Options.Faults) and exchange
// timeouts surface as panics carrying errors that wrap these sentinels; the
// plan layer (internal/core) and raw mpisim programs convert them back into
// ordinary errors with Comm.Protect, so callers classify failures with
// errors.Is instead of string matching.
var (
	// ErrRankFailed marks a rank killed mid-exchange. Every surviving rank
	// of the world observes it: the world aborts rather than hanging in a
	// collective that can never complete.
	ErrRankFailed = errors.New("rank failed")

	// ErrMessageCorrupt marks a payload corrupted in transit, detected on
	// receipt (modeling checksum verification in the transport).
	ErrMessageCorrupt = errors.New("message corrupt")

	// ErrExchangeTimeout marks an exchange whose wait exceeded the
	// per-exchange virtual-time bound — a dropped message or a straggler
	// stalled past the timeout becomes a bounded error instead of a
	// deadlock.
	ErrExchangeTimeout = errors.New("exchange timeout")

	// ErrRetransmitExhausted marks a checksummed block that stayed corrupt
	// through the whole per-exchange retransmit budget: the link is feeding
	// the receiver garbage faster than the transport can repair it.
	ErrRetransmitExhausted = errors.New("retransmit budget exhausted")

	// ErrIntegrity marks an ABFT phase invariant that kept failing after
	// phase-scoped re-execution: the data is provably corrupt and cannot be
	// repaired locally. Raised by the plan layer with rank+phase context.
	ErrIntegrity = errors.New("integrity violation")
)

// IsFault reports whether err wraps one of the fault sentinels.
func IsFault(err error) bool {
	return errors.Is(err, ErrRankFailed) || errors.Is(err, ErrMessageCorrupt) ||
		errors.Is(err, ErrExchangeTimeout) || errors.Is(err, ErrRetransmitExhausted) ||
		errors.Is(err, ErrIntegrity)
}

// faultPanic is the panic payload raised at a fault site. World.abort
// recognizes it and records the error instead of treating it as a rank bug.
type faultPanic struct{ err error }

func (f faultPanic) String() string { return f.err.Error() }

// FaultError returns the fault that failed the world (nil while healthy).
func (w *World) FaultError() error {
	if v := w.faultErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// FaultFrom converts a recovered panic value into the fault error it
// represents: the fault itself on the faulting rank, or the world's recorded
// fault on ranks unblocked by the abort. It returns nil for panics that are
// not fault-related — callers must re-panic those.
func FaultFrom(r any, w *World) error {
	switch v := r.(type) {
	case faultPanic:
		return v.err
	case worldAborted:
		if fe := w.FaultError(); fe != nil {
			return fe
		}
	}
	return nil
}

// Protect runs f and converts an injected-fault panic (rank killed, message
// corrupt, exchange timeout — on this rank or observed from another's
// failure) into an ordinary error. Non-fault panics propagate unchanged.
// Rank functions doing raw mpisim calls use it to observe faults as errors:
//
//	w.Run(func(c *mpisim.Comm) {
//	    err := c.Protect(func() { recv = c.Alltoallv(send) })
//	    if errors.Is(err, mpisim.ErrRankFailed) { ... }
//	})
func (c *Comm) Protect(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			fe := FaultFrom(r, c.core.world)
			if fe == nil {
				panic(r)
			}
			err = fe
		}
	}()
	f()
	return nil
}

// Fail aborts the world with err from application code — the cancellation
// hook behind the context-first plan API: a rank observing an expired
// context fails the collective program instead of leaving its peers blocked
// in exchanges that can never complete. The calling rank unwinds with a
// fault panic wrapping err (convert with Protect / FaultFrom); every other
// rank observes the same error.
func (c *Comm) Fail(err error) { c.raiseFault(err) }

// raiseFault aborts the world with err and unwinds the calling rank. Every
// other rank blocked in a send, receive or collective wakes and observes the
// same error (via Protect / FaultFrom).
func (c *Comm) raiseFault(err error) {
	w := c.core.world
	w.abort(faultPanic{err})
	panic(faultPanic{err})
}

// timeoutBound returns the per-exchange virtual-time bound in effect (0 =
// none): the fault plan's Timeout. A plan without events only sets the bound.
func (w *World) timeoutBound() float64 {
	if w.opts.Faults != nil {
		return w.opts.Faults.Timeout
	}
	return 0
}

// faultEnter is called at the top of every fault-visible exchange operation
// (P2P send, collective call): it advances the rank's op counter, applies
// stalls, and raises kills. The returned effect carries the drop/corrupt/
// degrade decisions the operation itself must apply. Worlds without an
// active plan pay one nil check.
func (c *Comm) faultEnter(op string) faults.Effect {
	w := c.core.world
	if !w.opts.Faults.Active() {
		return faults.Effect{}
	}
	st := c.state()
	wr := c.WorldRank(c.rank)
	idx := st.ops
	st.ops++
	eff := w.opts.Faults.Effect(wr, idx)
	if eff.Kill {
		// Record the casualty before aborting: Shrink reads the dead set and
		// the victim's clock (deterministic — it is the victim's own virtual
		// time at its own op index) to build the survivor world.
		w.noteDead(wr, st.clock)
		c.raiseFault(fmt.Errorf("mpisim: %w: rank %d killed during %s (op %d)", ErrRankFailed, wr, op, idx))
	}
	if eff.Stall > 0 {
		start := st.clock
		st.clock += eff.Stall
		c.record("fault_stall", start, st.clock, 0)
	}
	return eff
}

// timeoutFault raises ErrExchangeTimeout for this rank, charging the bound.
func (c *Comm) timeoutFault(op string, start, bound float64) {
	st := c.state()
	st.clock = start + bound
	c.raiseFault(fmt.Errorf("mpisim: %w: rank %d waited past %.3gs bound in %s",
		ErrExchangeTimeout, c.WorldRank(c.rank), bound, op))
}

// collClock finishes a rendezvous-based collective: it enforces the
// per-exchange timeout (the wait from entry to the collective's completion
// must stay under the bound) and returns the completion time to adopt.
func (c *Comm) collClock(op string, start, end float64) float64 {
	t := c.core.world.timeoutBound()
	if math.IsInf(end, 1) {
		// A peer's contribution was lost in transit: the wait never completes.
		if t <= 0 {
			c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: peer blocks lost in %s",
				ErrExchangeTimeout, c.WorldRank(c.rank), op))
		}
		c.timeoutFault(op, start, t)
	}
	if t > 0 && end-start > t {
		c.timeoutFault(op, start, t)
	}
	return end
}

// FaultsAttached reports whether the world injects faults: a plan with events
// is attached, so any exchange may have its payload dropped, flipped or
// re-requested in transit.
func (c *Comm) FaultsAttached() bool { return c.core.world.opts.Faults.Active() }
