package mpisim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/machine"
)

// Integrity layer of the transport: checksummed envelopes around every P2P
// message and collective block, verified on receipt with modeled compute cost,
// and a bounded retransmit protocol that re-requests only the bad block.
//
// Silent corruption (faults.CorruptSilent) really flips payload bits. With
// Checksums enabled the flip is caught at the envelope boundary: the receiver
// charges the verify pass, then pays one request/resend round trip per
// corrupted transmission until a clean copy lands or the per-exchange budget
// runs dry (ErrRetransmitExhausted). With Checksums disabled the flipped
// bytes are delivered silently — detecting them is then the job of the ABFT
// phase invariants in internal/core (ErrIntegrity).

// IntegrityConfig enables the end-to-end integrity machinery of a world. The
// zero value disables everything (no cost, no protection).
type IntegrityConfig struct {
	// Checksums wraps every P2P message and collective block in a 64-bit
	// checksummed envelope: compute charged at send, verify at receipt, and
	// a bounded per-block retransmit protocol on mismatch.
	Checksums bool
	// Invariants enables the ABFT phase invariants of the transform engine
	// (internal/core): per-brick checksum sums carried through reshapes and
	// DFT-linearity checks after every 1-D FFT phase, with phase-scoped
	// re-execution on failure.
	Invariants bool
}

// Enabled reports whether any integrity machinery is on.
func (ic IntegrityConfig) Enabled() bool { return ic.Checksums || ic.Invariants }

// retransmitBudget bounds retransmissions per corrupted block: a block still
// corrupt after that many surfaces as ErrRetransmitExhausted.
const retransmitBudget = 2

// IntegrityCounters accumulates what the integrity machinery did across a
// world's lifetime. All fields are atomically updated; read them with
// Snapshot.
type IntegrityCounters struct {
	ChecksumChecks     atomic.Int64 // envelope verify passes run
	ChecksumMismatches atomic.Int64 // envelopes that failed verification
	Retransmits        atomic.Int64 // block retransmissions performed
	InvariantChecks    atomic.Int64 // ABFT phase invariants evaluated
	InvariantFailures  atomic.Int64 // invariants that failed
	PhaseReexecs       atomic.Int64 // phase-scoped re-executions
}

// IntegritySnapshot is a plain-value copy of IntegrityCounters.
type IntegritySnapshot struct {
	ChecksumChecks     int64
	ChecksumMismatches int64
	Retransmits        int64
	InvariantChecks    int64
	InvariantFailures  int64
	PhaseReexecs       int64
}

// Snapshot returns a consistent-enough copy for reporting.
func (ic *IntegrityCounters) Snapshot() IntegritySnapshot {
	return IntegritySnapshot{
		ChecksumChecks:     ic.ChecksumChecks.Load(),
		ChecksumMismatches: ic.ChecksumMismatches.Load(),
		Retransmits:        ic.Retransmits.Load(),
		InvariantChecks:    ic.InvariantChecks.Load(),
		InvariantFailures:  ic.InvariantFailures.Load(),
		PhaseReexecs:       ic.PhaseReexecs.Load(),
	}
}

// Add accumulates another snapshot into this one.
func (s *IntegritySnapshot) Add(o IntegritySnapshot) {
	s.ChecksumChecks += o.ChecksumChecks
	s.ChecksumMismatches += o.ChecksumMismatches
	s.Retransmits += o.Retransmits
	s.InvariantChecks += o.InvariantChecks
	s.InvariantFailures += o.InvariantFailures
	s.PhaseReexecs += o.PhaseReexecs
}

// IntegrityCounters returns the world's live integrity counters.
func (w *World) IntegrityCounters() *IntegrityCounters { return &w.integ }

// SuspicionScores returns a snapshot of the per-world-rank suspicion scores:
// retransmits attribute to the sending rank (its link or memory produced the
// bad block), invariant failures to the rank whose brick failed. The serving
// layer's health ledger quarantines persistently suspicious ranks.
func (w *World) SuspicionScores() []int64 {
	out := make([]int64, w.size)
	for i := range out {
		out[i] = atomic.LoadInt64(&w.suspicion[i])
	}
	return out
}

// suspect attributes n points of suspicion to a world rank.
func (w *World) suspect(worldRank int, n int64) {
	atomic.AddInt64(&w.suspicion[worldRank], n)
}

// Integrity returns the world's integrity configuration (plan layer hook).
func (c *Comm) Integrity() IntegrityConfig { return c.core.world.opts.Integrity }

// IntegrityCounters returns the world's live counters (plan layer hook).
func (c *Comm) IntegrityCounters() *IntegrityCounters { return &c.core.world.integ }

// NoteSuspicion attributes suspicion to a world rank (plan layer hook: ABFT
// invariant failures suspect the local brick, envelope mismatches at unpack
// suspect the sender).
func (c *Comm) NoteSuspicion(worldRank int, n int64) { c.core.world.suspect(worldRank, n) }

// BrickProbe advances the rank's transform-phase probe counter and reports
// whether this phase execution attempt's output brick is silently corrupted
// by a Brick CorruptSilent event, with the deterministic flip seed. Called by
// the plan layer once per phase execution attempt (re-executions included),
// so consecutive-corruption counts line up with the re-execution budget.
func (c *Comm) BrickProbe() (bool, uint64) {
	w := c.core.world
	if !w.opts.Faults.Active() {
		return false, 0
	}
	st := c.state()
	op := st.probes
	st.probes++
	return w.opts.Faults.BrickEffect(c.WorldRank(c.rank), op)
}

// chargeChecksum advances the rank's clock by the modeled cost of a checksum
// (or sum-reduction) pass over the given bytes and records a trace event.
func (c *Comm) chargeChecksum(name string, bytes int) {
	if bytes == 0 {
		return
	}
	st := c.state()
	start := st.clock
	st.clock += c.Model().GPU.ChecksumCost(bytes)
	c.record(name, start, st.clock, bytes)
}

// ChargeChecksum exposes the checksum-pass cost to the plan layer, which
// charges it for ABFT sum computations fused with pack/unpack.
func (c *Comm) ChargeChecksum(bytes int) { c.chargeChecksum("checksum", bytes) }

// ChargeChecksumVerify is ChargeChecksum's receive-side flavour (the plan
// layer's ABFT envelope verification pass, fused into unpack).
func (c *Comm) ChargeChecksumVerify(bytes int) { c.chargeChecksum("checksum_verify", bytes) }

// chargeSendChecksums charges the envelope compute pass over a collective's
// off-diagonal send blocks (the self block never leaves the device).
func (c *Comm) chargeSendChecksums(send []Block) {
	if !c.core.world.opts.Integrity.Checksums {
		return
	}
	var bytes int
	for i := range send {
		if b := &send[i]; b.Peer != c.rank {
			bytes += b.Buf.bytes()
		}
	}
	c.chargeChecksum("checksum", bytes)
}

// mixSeed varies a silent-corruption seed per destination block so every
// corrupted block of a collective flips a different coordinate.
func mixSeed(seed uint64, dst int) uint64 {
	x := seed + uint64(dst)*0x9e3779b97f4a7c15
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x
}

// retransCost is the modeled virtual time of one retransmit round trip for a
// block of the given size from src (comm rank): the re-request rides one
// latency upstream, the clean copy pays a full P2P resend downstream.
func (c *Comm) retransCost(src int, bytes int, loc machine.Location) float64 {
	w := c.core.world
	srcW, dstW := c.WorldRank(src), c.WorldRank(c.rank)
	p := w.topo.Path(srcW, dstW)
	mc := w.model.MsgCostOn(bytes, p, w.nodes, loc == machine.Device, w.opts.GPUAware, machine.ClassP2P)
	return p.Latency + mc.Total()
}

// recoverBlock runs the bounded retransmit protocol for one corrupted block:
// it charges one round trip per corrupted transmission, counts them, and
// attributes suspicion to the sender. If the corruption outlasts the budget
// the exchange fails with ErrRetransmitExhausted.
func (c *Comm) recoverBlock(src int, b *Buf, op string) {
	w := c.core.world
	st := c.state()
	attempts := b.silent
	w.integ.ChecksumMismatches.Add(1)
	if attempts > retransmitBudget {
		start := st.clock
		st.clock += float64(retransmitBudget) * c.retransCost(src, b.Bytes(), b.Loc)
		c.record("retransmit", start, st.clock, retransmitBudget*b.Bytes())
		w.integ.Retransmits.Add(int64(retransmitBudget))
		w.suspect(c.WorldRank(src), int64(retransmitBudget)+1)
		c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: %s block from rank %d still corrupt after %d retransmits",
			ErrRetransmitExhausted, c.WorldRank(c.rank), op, c.WorldRank(src), retransmitBudget))
	}
	start := st.clock
	st.clock += float64(attempts) * c.retransCost(src, b.Bytes(), b.Loc)
	c.record("retransmit", start, st.clock, attempts*b.Bytes())
	w.integ.Retransmits.Add(int64(attempts))
	w.suspect(c.WorldRank(src), int64(attempts))
	// The clean copy has landed: the payload was never flipped on this path
	// (the simulator models the retransmit instead of destroying the data).
	b.silent = 0
	b.flipSeed = 0
}

// deliverIntegrity finishes the receive side of a collective exchange, where
// recv lists the delivered blocks in ascending source rank: it charges the
// envelope verify pass over the received payload, then — lowest source first,
// each attributed to its source's rank — either repairs silently-corrupted
// blocks through the retransmit protocol (Checksums on) or really flips their
// payload bits (Checksums off — the corruption reaches the caller, and only
// the ABFT invariants can catch it downstream). Both act on this rank's own
// copy of the block in its receive list — the flip on the payload it names,
// which the sender handed over and never reads again — so no other rank can
// observe the repair or the flip.
func (c *Comm) deliverIntegrity(recv []Block, op string) {
	w := c.core.world
	if !w.opts.Integrity.Enabled() && !w.opts.Faults.Active() {
		return
	}
	checksums := w.opts.Integrity.Checksums
	if checksums {
		var bytes int
		for i := range recv {
			if d := &recv[i]; d.Peer != c.rank {
				bytes += d.Buf.bytes()
			}
		}
		c.chargeChecksum("checksum_verify", bytes)
		w.integ.ChecksumChecks.Add(1)
	}
	for i := range recv {
		s, b := recv[i].Peer, &recv[i].Buf
		if s == c.rank || b.silent == 0 {
			continue
		}
		if checksums {
			c.recoverBlock(s, b, op)
			continue
		}
		// No checksummed transport: the flip really lands in the delivered
		// payload. Nothing is raised — that is the point of "silent".
		b.corruptPayload()
	}
}

// corruptPayload applies the deterministic bit flip of a silent corruption to
// the buffer's payload. Phantom buffers carry no bytes; the corruption is
// then a timing-only no-op.
func (b *Buf) corruptPayload() {
	seed := b.flipSeed
	b.silent = 0
	b.flipSeed = 0
	switch {
	case b.Data != nil:
		CorruptComplex(b.Data, seed)
	case b.Real != nil:
		CorruptReal(b.Real, seed)
	}
}

// CorruptComplex flips one high mantissa bit of one element's real part,
// deterministically from the seed. The victim element is the first with
// non-negligible magnitude at or after seed%len, so the perturbation is
// always far above invariant tolerance (a mantissa bit in [40,52) changes
// the value by a relative 2⁻¹² … 2⁻¹ of itself) yet bounded. A fully-zero
// scan window falls back to gross corruption so the flip never vanishes
// into a denormal.
func CorruptComplex(d []complex128, seed uint64) {
	n := len(d)
	if n == 0 {
		return
	}
	idx := int(seed % uint64(n))
	bit := 40 + uint(seed>>32)%12
	for probes := 0; probes < 64; probes++ {
		re := real(d[idx])
		if math.Abs(re) > 1e-6 {
			d[idx] = complex(flipBit(re, bit), imag(d[idx]))
			return
		}
		idx = (idx + 1) % n
	}
	d[idx] = complex(1, imag(d[idx]))
}

// CorruptReal is CorruptComplex over a real payload.
func CorruptReal(d []float64, seed uint64) {
	n := len(d)
	if n == 0 {
		return
	}
	idx := int(seed % uint64(n))
	bit := 40 + uint(seed>>32)%12
	for probes := 0; probes < 64; probes++ {
		if math.Abs(d[idx]) > 1e-6 {
			d[idx] = flipBit(d[idx], bit)
			return
		}
		idx = (idx + 1) % n
	}
	d[idx] = 1
}

func flipBit(v float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(v) ^ (1 << bit))
}
