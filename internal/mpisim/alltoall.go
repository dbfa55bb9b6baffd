package mpisim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/machine"
)

// The all-to-all engine. Every flavour — padded MPI_Alltoall, exact
// MPI_Alltoallv, per-message MPI_Alltoallw, the algorithm-scheduled variants
// and their non-blocking twins — is one rendezvous written once (postAlltoall)
// and one completion written once (finishAlltoall); a blocking call is a post
// followed by a finish. What differs between flavours is only how the exchange
// is priced: every flavour but MPI_Alltoallw is one CollectiveAlgo schedule
// (the padded and vendor loops are linearAlgo) priced by priceScheduled, with
// one staging rule, one degrade rule and one injection-port gate;
// MPI_Alltoallw's per-message loop is priceNaive.
//
// The engine prices from a Pattern: every member's sparse row of the exchange
// matrix and its self block, in bytes. An FFT reshape is a fixed neighbour
// pattern — a rank of a 768-rank brick↔pencil exchange talks to about twenty
// peers, with sizes its plan fixes — so the plan layer describes each
// exchange once, world-wide, and hands the same *Pattern to every call on
// every member (MPI-4's persistent MPI_Alltoallv_init; Dalcin et al.'s
// subarray datatypes, built once per plan). A caller without a plan passes
// only blocks, and the leader derives their pattern in one pass over them
// (pricing.derive). Either way a deposit is a handful of per-rank scalars —
// entry clock, injection-port snapshot, degrade factor, drop, buffer location
// — plus, when there is payload to carry, the rank's block list. What a
// schedule makes of a pattern is the pattern's too: the first call on a
// communicator compiles it into a program the rendezvous keeps (see
// pricing.program), and every later call runs that program on the members'
// starts and degrade factors alone. The leader's per-round scratch is
// communicator-length — every member's input and output (round, coll.go), a
// run's rows (pricing, below) — and is pooled, not allocated per call. The three dense []Buf entry points left (AlltoallvWith,
// and Ialltoallv and WaitColl in icoll.go) serve only the benchmark harness's
// layer replay (benchmark/replay.go); they compress into and expand out of
// block lists around the same engine.
//
// Receivers own copies of their blocks. The send list a rank hands over is its
// deposit for the length of the rendezvous; the leader copies every block in
// it (peer and Buf, not the payload) into its one receiver's list, which the
// receiver lent the round, like MPI's recvbuf. A round whose deposits carry no
// blocks — a size-only exchange priced from its pattern — has nothing to copy,
// and its receivers get their lent lists back empty. When the call returns —
// the non-blocking post included, since the rendezvous completes at post — the
// send list is dead to the engine and the caller may reuse it; a receiver
// repairs or flips its own copy (the integrity layer), and nothing about a
// round outlives it but the receive lists and the payloads they name.
//
// The visiting-order contract: floating-point accumulation order is the
// virtual clock, so every pricer walks a row's flows in exactly the order its
// dense loop would have met them — ascending destination for the linear and
// Alltoallw loops (Alltoallw's self block at its place among them), cyclic
// distance (dst − src) mod p for pairwise and ring, node order for the
// two-level schedule, integer totals for Bruck. A block a row does not name adds nothing
// in any of those loops, which is what makes the sparse walk bit-identical to
// the dense one.

// Block is one entry of a sparse exchange vector: the payload addressed to
// (in a send list) or delivered from (in a receive list) comm rank Peer. A
// list names each peer at most once, in ascending rank order; the self block
// is listed like any other. Peers a list does not name exchange nothing.
//
// The sparse entry points deposit the send list they are handed for the
// length of the call, detaching and tagging its entries in place, and are
// done with it when they return; the payloads travel on (a Move payload to
// its receiver). They append the received blocks to the recv list the caller
// lends them — emptied first, grown if it is too short — and return it.
type Block struct {
	Peer int
	Buf  Buf
}

// Pattern is the persistent description of one all-to-all: who sends how
// many bytes to whom. Rows[r] is comm rank r's sparse row of the exchange
// matrix — its non-empty blocks to other ranks, ascending by destination, the
// form PriceAlltoallv takes — and Self[r] the bytes of its self block; both
// cover every rank of the communicator. A caller that exchanges the same sizes
// call after call (a plan's reshape) builds the pattern once and hands the
// same *Pattern to every call on every member, with or without the blocks:
// the engine prices from the pattern and never from block sizes, so the
// blocks, when given, must agree with it. A pattern is read-only once handed
// over, and may serve any number of communicators at once.
type Pattern struct {
	Rows [][]Flow
	Self []int

	once sync.Once
	sums patternSums
}

// patternSums is what pricing reads off a pattern besides its rows.
type patternSums struct {
	send, recv []int  // bytes each rank sends and receives, self block included
	active     []bool // moves off-diagonal bytes, as sender or receiver
	pad        int    // the largest block, self blocks included
}

// summed returns the pattern with its sums worked out, the first caller
// working them out for everyone.
func (p *Pattern) summed() *Pattern {
	p.once.Do(p.sum)
	return p
}

// sum works out the pattern's totals. Every quantity is an integer sum or an
// extremum, so the order the flows are met in does not matter.
func (p *Pattern) sum() {
	n := len(p.Rows)
	s := &p.sums
	s.send, s.recv, s.active = resize(s.send, n), resize(s.recv, n), resize(s.active, n)
	clear(s.send)
	clear(s.recv)
	clear(s.active)
	s.pad = 0
	for r, row := range p.Rows {
		self := p.Self[r]
		s.send[r] += self
		s.recv[r] += self
		s.pad = max(s.pad, self)
		for _, f := range row {
			s.send[r] += f.Bytes
			s.recv[f.Dst] += f.Bytes
			s.pad = max(s.pad, f.Bytes)
			s.active[r], s.active[f.Dst] = true, true
		}
	}
}

// pricing is the leader's communicator-length scratch for pricing and
// transposing one all-to-all round: per-rank counts, the rows a schedule runs
// on (each rank's start, degrade factor and completion, and the run's
// scratch), the Exchange a schedule is compiled from, and the pattern of a
// round whose members passed only blocks, with the flows its rows live in.
// The leader draws it from pricingPool in its compute and gives it back,
// cleared of pointers into the world, before the round's members leave, so a
// round waiting for its members holds only their inputs and outputs.
type pricing struct {
	counts []int
	clocks []float64
	ex     Exchange
	pat    Pattern
	flows  []Flow
}

var pricingPool = sync.Pool{New: func() any { return new(pricing) }}

// zeroCounts returns the per-rank int scratch for a size-p round, zeroed.
func (ps *pricing) zeroCounts(p int) []int {
	ps.counts = resize(ps.counts, p)
	clear(ps.counts)
	return ps.counts
}

// runRows returns the rows of one run of a size-p schedule: start and factor
// for the caller to fill, comp for the run to fill, and the run's scratch,
// zeroed.
func (ps *pricing) runRows(p int) (start, factor, comp, tmp []float64) {
	ps.clocks = resize(ps.clocks, 4*p)
	tmp = ps.clocks[3*p : 4*p]
	clear(tmp)
	return ps.clocks[:p], ps.clocks[p : 2*p], ps.clocks[2*p : 3*p], tmp
}

// exchange returns the Exchange scratch for c's communicator, its members
// left for the caller to fill.
func (ps *pricing) exchange(c *Comm) *Exchange {
	w := c.core.world
	ps.ex = Exchange{Size: c.Size(), Members: resize(ps.ex.Members, c.Size()), Topo: w.topo, M: w.model}
	return &ps.ex
}

// release clears the schedule's rows and world and returns the scratch to
// the pool.
func (ps *pricing) release() {
	clear(ps.ex.Members)
	ps.ex = Exchange{Members: ps.ex.Members[:0]}
	pricingPool.Put(ps)
}

// progKey names a compiled schedule on one communicator: the pattern it was
// compiled from, the schedule, and whether the members' buffers are
// device-resident without staging (which sets the call's overhead).
type progKey struct {
	pat  *Pattern
	algo CollectiveAlgo
	dev  bool
}

// program returns impl compiled for the round's exchange. A round priced from
// the pattern its members handed over, whose members agree on where their
// buffers live, replays the program its rendezvous keeps under that key,
// compiling it on first use; the program is the communicator's, since the
// same pattern maps onto other nodes on another communicator. A derived
// pattern is scratch of its round (pricing.pat), so its program is compiled
// for that round alone, as is a round whose members disagree on where their
// buffers live.
func (ps *pricing) program(c *Comm, ins []collIn, pat *Pattern, impl CollectiveAlgo) program {
	gpuAware := c.core.world.opts.GPUAware
	key := progKey{pat: pat, algo: impl, dev: ins[0].dev && gpuAware}
	keep := ins[0].pat != nil
	for r := range ins {
		keep = keep && (ins[r].dev && gpuAware) == key.dev
	}
	rv := c.core.rv
	if keep {
		if prog, ok := rv.progs[key]; ok {
			return prog
		}
	}
	ex := ps.exchange(c)
	ex.pad = pat.sums.pad
	for r := range ins {
		ex.Members[r] = Member{World: c.WorldRank(r), Flows: pat.Rows[r], Dev: ins[r].dev && gpuAware, Active: pat.sums.active[r]}
	}
	prog := impl.compile(ex)
	if keep {
		if rv.progs == nil {
			rv.progs = make(map[progKey]program)
		}
		rv.progs[key] = prog
	}
	return prog
}

// patternOf returns the pattern the round is priced from: the one every
// member handed over, or — when they passed only blocks — the one derive
// builds from their deposits.
func (ps *pricing) patternOf(ins []collIn) *Pattern {
	pat := ins[0].pat
	for r := range ins {
		if ins[r].pat != pat {
			panic(fmt.Sprintf("mpisim: all-to-all members 0 and %d pass different exchange patterns", r))
		}
	}
	if pat == nil {
		return ps.derive(ins)
	}
	return pat
}

// derive builds the pattern of a round from its deposits in one pass over the
// blocks that exist: one backing array for the rows, ascending destination
// within a row (the send lists ascend), zero-size blocks left out.
func (ps *pricing) derive(ins []collIn) *Pattern {
	p := &ps.pat
	nnz := 0
	for r := range ins {
		nnz += len(ins[r].blocks)
	}
	if cap(ps.flows) < nnz {
		ps.flows = make([]Flow, 0, nnz)
	}
	flows := ps.flows[:0]
	p.Rows, p.Self = resize(p.Rows, len(ins)), resize(p.Self, len(ins))
	for r := range ins {
		first := len(flows)
		p.Self[r] = 0
		for i := range ins[r].blocks {
			b := &ins[r].blocks[i]
			switch by := b.Buf.bytes(); {
			case b.Peer == r:
				p.Self[r] = by
			case by > 0:
				flows = append(flows, Flow{Dst: b.Peer, Bytes: by})
			}
		}
		p.Rows[r] = flows[first:len(flows):len(flows)]
	}
	p.sum()
	return p
}

// scheduleOf maps an Algo to its schedule, the one every blocking and
// non-blocking all-to-all-v runs and PriceAlltoallv ranks; AlgoLinear is the
// vendor per-destination loop.
func scheduleOf(a Algo) CollectiveAlgo {
	switch a {
	case AlgoPairwise:
		return pairwiseAlgo{}
	case AlgoRing:
		return ringAlgo{}
	case AlgoBruck:
		return bruckAlgo{}
	case AlgoNodeAware:
		return nodeAwareAlgo{}
	}
	return linearAlgo{}
}

// PriceAlltoallv returns what the all-to-all-v described by rows costs under
// schedule a on an idle group: the completion time of the slowest rank when
// every member enters at virtual time zero with a free injection port and no
// degraded link. rows[r] is comm rank r's sparse row of the exchange matrix —
// its non-empty blocks to other ranks, ascending by destination — and may stop
// short of the communicator (the remaining ranks exchange nothing). Buffers
// are taken to live on the device, as the plan layer's do: the call's setup
// overhead is the device one on a GPU-aware world, the host one where they
// would be staged.
//
// This is the function every executed all-to-all-v is priced by, blocking or
// not, for every schedule on every world: the same Exchange priceScheduled
// compiles, run by the same program. Staging, the self copy and checksum
// envelopes cost the same under every schedule and are left out, so the
// result ranks schedules; it is not the duration of a call.
func (c *Comm) PriceAlltoallv(rows [][]Flow, a Algo) float64 {
	ps := pricingPool.Get().(*pricing)
	defer ps.release()
	ex := ps.exchange(c)
	for r := range ex.Members {
		ex.Members[r] = Member{World: c.WorldRank(r), Dev: c.core.world.opts.GPUAware}
	}
	for r, row := range rows {
		ex.Members[r].Flows = row
		for _, f := range row {
			ex.Members[r].Active, ex.Members[f.Dst].Active = true, true
		}
	}
	start, factor, comp, tmp := ps.runRows(ex.Size)
	for r := range start {
		start[r], factor[r] = 0, 1
	}
	scheduleOf(a).compile(ex).run(start, factor, comp, tmp)
	worst := 0.0
	for _, t := range comp {
		worst = math.Max(worst, t)
	}
	return worst
}

// stagingCost is the bulk PCIe staging of a non-GPU-aware exchange of device
// buffers: heFFTe's -no-gpu-aware path copies the whole packed buffer to the
// host once, calls the host collective, and copies the result back.
func stagingCost(m *machine.Model, totalSend, totalRecv int) float64 {
	return 2*m.StagingOverhead +
		(1-m.StagingOverlap)*(float64(totalSend)/m.PCIeBW+float64(totalRecv)/m.PCIeBW)
}

// priceNaive prices MPI_Alltoallw (Algorithm 2, Dalcin et al.): a naive
// per-message Isend/Irecv loop with high setup cost. Every rank starts at the
// group's last entry and walks its destinations in ascending rank order, the
// self block's device copy at its place among them (MPI short-circuits
// zero-size blocks; a row names none). Staging, if any, happens per message
// inside MsgCostOn — SpectrumMPI-like stacks are not GPU-aware on this path —
// and the port is not modeled: the call owns the wire until it returns.
func priceNaive(c *Comm, ins []collIn, outs []collOut, pat *Pattern) {
	w := c.core.world
	m := w.model
	t0 := maxClock(ins)
	for r := range ins {
		srcW := c.WorldRank(r)
		var t float64
		selfCopy := float64(pat.Self[r]) * 2 / m.GPU.MemBW
		self := pat.Self[r] > 0
		for _, f := range pat.Rows[r] {
			if self && f.Dst > r {
				t += selfCopy
				self = false
			}
			path := w.topo.Path(srcW, c.WorldRank(f.Dst))
			t += m.MsgCostOn(f.Bytes, path, w.nodes, ins[r].dev, w.opts.GPUAware, machine.ClassAlltoallw).Total()
		}
		if self {
			t += selfCopy
		}
		if f := ins[r].factor; f > 1 {
			// Degraded link: this rank's whole exchange slows down.
			t *= f
		}
		outs[r].clock = t0 + t
	}
}

// priceScheduled prices an exchange under a CollectiveAlgo. It handles
// everything the schedule itself does not model: PCIe staging for
// non-GPU-aware device buffers, the self block's device copy, and
// injection-port gating, so back-to-back exchanges serialize honestly on the
// wire instead of overlapping for free. A padded MPI_Alltoall prices exactly
// as an all-to-all-v under AlgoLinear whose rows name every peer at the
// round's largest block.
func priceScheduled(c *Comm, ins []collIn, outs []collOut, ps *pricing, pat *Pattern, impl CollectiveAlgo) {
	w := c.core.world
	m := w.model
	size := len(ins)
	// Synchronized schedules (lock-step rounds) gate every rank on the
	// group's last entry; unsynchronized ones start each rank at its own
	// arrival and let receiver-side data dependencies carry the skew.
	t0 := math.Inf(-1)
	if impl.Synchronized() {
		t0 = maxClock(ins)
	}
	// The caller is the rendezvous' last arrival and has it to itself.
	prog := ps.program(c, ins, pat, impl)
	start, factor, comp, tmp := ps.runRows(size)
	s := &pat.sums
	// A padded walk (MPI_Alltoall) stages the buffer it sends and receives:
	// the round's largest block for every peer, plus the rank's self block.
	padded := impl == linearAlgo{padded: true}
	for r := range ins {
		stage := 0.0
		if ins[r].dev && !w.opts.GPUAware {
			send, recv := s.send[r], s.recv[r]
			if padded {
				send = (size-1)*s.pad + pat.Self[r]
				recv = send
			}
			stage = stagingCost(m, send, recv)
		}
		// Staging copies ride PCIe, not the NIC: they start at local
		// arrival and overlap whatever transfer still occupies the
		// injection port — which is how a chunked pipeline hides the
		// host↔device hops of chunk k+1 under the wire time of chunk k.
		start[r] = math.Max(math.Max(t0, ins[r].clock+stage), ins[r].port)
		factor[r] = degrade(ins[r].factor)
	}
	prog.run(start, factor, comp, tmp)
	for r := range ins {
		t := comp[r]
		if by := pat.Self[r]; by > 0 {
			t += float64(by) * 2 / m.GPU.MemBW * factor[r]
		}
		outs[r].clock, outs[r].port = t, comp[r]
	}
}

// checkBlocks enforces the sparse-vector contract on the caller's goroutine:
// peers in range, strictly ascending.
func checkBlocks(send []Block, size int, op string) {
	prev := -1
	for i := range send {
		peer := send[i].Peer
		if peer <= prev || peer >= size {
			panic(fmt.Sprintf("mpisim: %s send list names peer %d after %d on a size-%d comm (peers must be in range and strictly ascending)", op, peer, prev, size))
		}
		prev = peer
	}
}

// everyPeer returns the send list with a zero-size block filled in for every
// peer it does not name.
func everyPeer(send []Block, size int, loc machine.Location) []Block {
	full := make([]Block, size)
	for i := range full {
		full[i] = Block{Peer: i, Buf: Buf{Loc: loc}}
	}
	for _, b := range send {
		full[b.Peer] = b
	}
	return full
}

// transpose copies the members' deposits into their receive lists: one pass
// counts each rank's arrivals and grows the list it lent to fit, a second
// appends a copy of every block to its receiver's list. Sources are visited in
// ascending rank order, so every receive list comes out ascending by source.
// A round whose deposits carry no blocks has nothing to copy and is left
// alone: its receivers get the lists they lent back as they were.
func (rv *rendezvous) transpose(ins []collIn, outs []collOut, ps *pricing) {
	counts := ps.zeroCounts(len(ins))
	carried := false
	for s := range ins {
		for i := range ins[s].blocks {
			counts[ins[s].blocks[i].Peer]++
			carried = true
		}
	}
	if !carried {
		return
	}
	rv.transposes++
	for r, n := range counts {
		outs[r].blocks = slices.Grow(ins[r].recv, n)
	}
	for s := range ins {
		for i := range ins[s].blocks {
			b := &ins[s].blocks[i]
			o := &outs[b.Peer]
			o.blocks = append(o.blocks, Block{Peer: s, Buf: b.Buf})
		}
	}
}

// postAlltoall runs the one all-to-all rendezvous. pat describes the exchange
// (nil: the leader derives it from the deposited blocks); send lists the
// rank's blocks when there is payload to carry, and may be nil when pat is
// given; loc is where the rank's send buffer lives (it decides staging and the
// overhead class even for a rank that sends nothing). The send list is the
// rank's deposit until the rendezvous completes, its payloads detached from
// the caller's slices and tagged in place; the receivers are handed copies of
// its entries, appended to the recv list each lent (emptied first). Prologue:
// fault entry (stalls, kills), the send-side envelope charge, defensive copies
// of payloads not sent with Move, the rank's fault effects tagged onto every
// block, and the injection-port snapshot. Rendezvous: the last arrival prices
// the exchange from the pattern with impl (nil: MPI_Alltoallw's per-message
// loop), transposes the deposits into per-rank receive lists, and pushes the
// completion of every rank expecting a block from a lost sender to +Inf. Epilogue: the port adopts the new busy-until
// time. The returned request is complete in every respect except that the
// caller's clock has not moved: finishAlltoall adopts the completion time. op
// names the call in fault errors and timeouts.
func (c *Comm) postAlltoall(pat *Pattern, send, recv []Block, loc machine.Location, impl CollectiveAlgo, op string) CollRequest {
	size := c.Size()
	checkBlocks(send, size, op)
	if pat != nil {
		if len(pat.Rows) != size || len(pat.Self) != size {
			panic(fmt.Sprintf("mpisim: %s pattern of %d rows and %d self blocks on a size-%d comm", op, len(pat.Rows), len(pat.Self), size))
		}
		pat.summed()
	}
	st := c.state()
	start := st.clock

	eff := c.faultEnter(op)
	c.chargeSendChecksums(send)
	if eff.Corrupt || eff.Silent > 0 {
		// A fault that damages this rank's transmissions damages the block to
		// every destination, zero-size ones included (an empty message still
		// fails verification, or costs its receiver a retransmit round trip):
		// name them all so each one carries the tag.
		send = everyPeer(send, size, loc)
	}
	in := collIn{clock: st.clock, port: st.portFreeAt, pat: pat, blocks: send, recv: recv[:0], dev: loc == machine.Device, lost: eff.Drop}
	if eff.Factor > 1 {
		in.factor = eff.Factor
	}
	total := 0
	for i := range send {
		b := &send[i]
		total += b.Buf.bytes()
		b.Buf.detach()
		if b.Peer == c.rank {
			continue
		}
		if eff.Corrupt {
			b.Buf.Corrupt = true
		}
		if eff.Silent > 0 {
			b.Buf.silent = eff.Silent
			b.Buf.flipSeed = mixSeed(eff.SilentSeed, b.Peer)
		}
	}
	if pat != nil {
		total = pat.sums.send[c.rank]
	}
	rv := c.core.rv
	out := rv.exchange(c.core.world, c.rank, in, func(ins []collIn, outs []collOut) {
		ps := pricingPool.Get().(*pricing)
		pat := ps.patternOf(ins)
		if impl != nil {
			priceScheduled(c, ins, outs, ps, pat, impl)
		} else {
			priceNaive(c, ins, outs, pat)
		}
		rv.transpose(ins, outs, ps)
		// Dropped contributions: every rank expecting a nonzero block from a
		// lost sender waits forever — its completion moves past any finite
		// bound and surfaces as ErrExchangeTimeout at completion.
		for r := range ins {
			if ins[r].lost {
				for _, f := range pat.Rows[r] {
					outs[f.Dst].clock = math.Inf(1)
				}
			}
		}
		ps.release()
	})
	if out.port > st.portFreeAt {
		st.portFreeAt = out.port
	}
	if out.blocks == nil {
		out.blocks = in.recv
	}
	return CollRequest{comm: c, postedAt: start, completeAt: out.clock, recv: out.blocks, bytes: total, op: op}
}

// finishAlltoall completes a posted exchange: the clock advances to the
// exchange's completion (not at all if local work since the post already
// covered it), under the per-exchange timeout measured from the post; blocks
// flagged corrupt in transit fail verification, the lowest-ranked source
// first; the integrity layer verifies, repairs or really corrupts the
// delivered payload. The trace event is named traceName and starts at
// traceStart — the post for a blocking call (one event per collective), the
// wait's own entry for a non-blocking one.
func (c *Comm) finishAlltoall(r *CollRequest, traceName string, traceStart float64) []Block {
	st := c.state()
	if end := c.collClock(r.op, r.postedAt, r.completeAt); end > st.clock {
		st.clock = end
	}
	r.done = true
	c.record(traceName, traceStart, st.clock, r.bytes)
	for i := range r.recv {
		if b := &r.recv[i]; b.Buf.Corrupt && b.Peer != c.rank {
			c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: %s block from rank %d failed verification",
				ErrMessageCorrupt, c.WorldRank(c.rank), r.op, c.WorldRank(b.Peer)))
		}
	}
	c.deliverIntegrity(r.recv, r.op)
	return r.recv
}

// blockingAlltoall is post + finish with nothing in between.
func (c *Comm) blockingAlltoall(pat *Pattern, send, recv []Block, loc machine.Location, impl CollectiveAlgo, op string) []Block {
	r := c.postAlltoall(pat, send, recv, loc, impl, op)
	return c.finishAlltoall(&r, op, r.postedAt)
}

// AlltoallSparse exchanges sparse vectors with MPI_Alltoall semantics: all
// pairs — named or not — are padded to the maximum block size in the
// communicator, and the call is priced as AlltoallvSparse under AlgoLinear
// over that padded matrix: every peer at the largest block. pat
// describes the exchange, or is nil to have it read off the send lists; send
// may be nil when pat is given and there is no payload to carry. loc is where
// the rank's send buffer lives. The returned list is recv (or a grown copy of
// it) holding the blocks addressed to this rank, ascending by source; recv may
// be nil.
func (c *Comm) AlltoallSparse(pat *Pattern, send, recv []Block, loc machine.Location) []Block {
	return c.blockingAlltoall(pat, send, recv, loc, linearAlgo{padded: true}, "MPI_Alltoall")
}

// AlltoallwSparse prices MPI_Alltoallw, the generalized all-to-all on derived
// sub-array datatypes used by Algorithm 2 (Dalcin et al.) — a naive
// Isend/Irecv loop with high per-message setup, and, on SpectrumMPI-like
// stacks, no GPU-awareness, so device buffers stage through PCIe per message.
// pat, send, recv and loc are as for AlltoallSparse.
func (c *Comm) AlltoallwSparse(pat *Pattern, send, recv []Block, loc machine.Location) []Block {
	return c.blockingAlltoall(pat, send, recv, loc, nil, "MPI_Alltoallw")
}

// AlltoallvSparse exchanges exact per-pair sizes, scheduled by the selected
// algorithm (the vendor linear loop, pairwise exchange, ring streaming, Bruck
// log-step, or the node-aware two-level schedule) and priced exactly as
// PriceAlltoallv ranks it, plus staging and the self copy. The received bytes
// are identical for every algorithm; only the virtual-time cost differs. Every
// schedule serializes through each rank's injection port, so chunked
// back-to-back exchanges pipeline honestly instead of overlapping for free.
// pat, send, recv and loc are as for AlltoallSparse.
func (c *Comm) AlltoallvSparse(pat *Pattern, send, recv []Block, loc machine.Location, a Algo) []Block {
	return c.blockingAlltoall(pat, send, recv, loc, scheduleOf(a), "MPI_Alltoallv")
}

// The dense adapters: send[dst] → recv[src] over vectors of one Buf per comm
// rank, compressed into a send list and expanded back, so a dense caller and a
// sparse caller handing over the same blocks land on the same clocks and
// receive the same payloads.

// compress lists the non-empty blocks of a dense send vector and finds where
// the send buffer lives (on the device if any block, empty or not, is).
func (c *Comm) compress(send []Buf, op string) ([]Block, machine.Location) {
	if len(send) != c.Size() {
		panic(fmt.Sprintf("mpisim: %s send slice has %d entries for size-%d comm", op, len(send), c.Size()))
	}
	loc := machine.Host
	n := 0
	for _, b := range send {
		if b.Loc == machine.Device {
			loc = machine.Device
		}
		if b.Bytes() > 0 {
			n++
		}
	}
	blocks := make([]Block, 0, n)
	for i, b := range send {
		if b.Bytes() > 0 {
			blocks = append(blocks, Block{Peer: i, Buf: b})
		}
	}
	return blocks, loc
}

// expand spreads a receive list over a dense vector indexed by source rank.
func (c *Comm) expand(recv []Block) []Buf {
	out := make([]Buf, c.Size())
	for i := range recv {
		out[recv[i].Peer] = recv[i].Buf
	}
	return out
}

// AlltoallvWith is AlltoallvSparse over dense vectors (send[dst] → recv[src]).
func (c *Comm) AlltoallvWith(send []Buf, a Algo) []Buf {
	blocks, loc := c.compress(send, "MPI_Alltoallv")
	return c.expand(c.AlltoallvSparse(nil, blocks, nil, loc, a))
}
