package mpisim

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// The all-to-all engine. Every flavour — padded MPI_Alltoall, exact
// MPI_Alltoallv, datatype MPI_Alltoallw, the algorithm-scheduled variants and
// their non-blocking twins — is one rendezvous written once (postAlltoall) and
// one completion written once (finishAlltoall); a blocking call is a post
// followed by a finish. What differs between flavours is only how the exchange
// is priced, and the pricing policies are plain values beside each other
// below.

// pricer is one pricing policy: given every member's contribution (entry
// clock, send blocks, injection-port snapshot, degrade factor) it fills each
// rank's completion time outs[r].clock and, for the scheduled policies, which
// occupy the injection port, its new busy-until time outs[r].port (zero
// leaves the port untouched).
type pricer struct {
	naive naiveKind      // the unscheduled flavour, when sched is nil
	sched CollectiveAlgo // a port-gated schedule
}

func (p pricer) price(c *Comm, ins []collIn, outs []collOut) {
	if p.sched != nil {
		priceScheduled(c, ins, outs, p.sched)
	} else {
		priceNaive(c, ins, outs, p.naive)
	}
}

// naiveKind distinguishes the three unscheduled All-to-All flavours of
// Table I.
type naiveKind int

const (
	// kindAlltoall pads every pair to the communicator's largest block (the
	// padding cost the paper observes on brick↔pencil reshapes, Figs. 2 and 6)
	// in exchange for the most optimized vendor loop.
	kindAlltoall  naiveKind = iota
	kindAlltoallv           // vendor per-destination loop over exact sizes
	kindAlltoallw           // per-message loop over derived sub-array datatypes
)

// priceLinearGated is the per-destination loop inside the scheduled
// machinery. It is not folded into the vendor Alltoallv pricing: the vendor
// loop charges staging after the group's last entry and multiplies the degrade
// factor over staging, self copy and wire alike, while a scheduled exchange
// starts staging at local arrival and gates on the injection port — the same
// traffic lands on different clocks. Blocking AlgoLinear keeps the vendor
// pricing (timing-identical to Alltoallv); the non-blocking flavour runs here
// because chunked pipelines post it back to back, and only the port gate keeps
// two in-flight chunks from sharing the wire for free.
var priceLinearGated = pricer{sched: linearAlgo{}}

// schedulePricer maps an Algo to its pricing policy for blocking calls.
func schedulePricer(a Algo) pricer {
	switch a {
	case AlgoPairwise:
		return pricer{sched: pairwiseAlgo{}}
	case AlgoRing:
		return pricer{sched: ringAlgo{}}
	case AlgoBruck:
		return pricer{sched: bruckAlgo{}}
	case AlgoNodeAware:
		return pricer{sched: nodeAwareAlgo{}}
	}
	return pricer{naive: kindAlltoallv}
}

// traffic scans rank r's row and column of the exchange matrix: whether any
// of its send blocks is device-resident, and the bytes it sends and receives
// (self block included). row, when non-nil, receives the per-destination
// byte counts.
func traffic(ins []collIn, r int, row []int) (dev bool, totalSend, totalRecv int) {
	for d, b := range ins[r].send {
		if b.Loc == machine.Device {
			dev = true
		}
		by := b.Bytes()
		if row != nil {
			row[d] = by
		}
		totalSend += by
	}
	for s := range ins {
		totalRecv += ins[s].send[r].Bytes()
	}
	return dev, totalSend, totalRecv
}

// stagingCost is the bulk PCIe staging of a non-GPU-aware exchange of device
// buffers: heFFTe's -no-gpu-aware path copies the whole packed buffer to the
// host once, calls the host collective, and copies the result back.
func stagingCost(m *machine.Model, totalSend, totalRecv int) float64 {
	return 2*m.StagingOverhead +
		(1-m.StagingOverlap)*(float64(totalSend)/m.PCIeBW+float64(totalRecv)/m.PCIeBW)
}

// priceNaive prices the unscheduled collectives: every rank starts at the
// group's last entry and walks its destinations. The vendor loops
// (MPI_Alltoall/v) stage in bulk when the stack is not GPU-aware and pay the
// collective's per-message overhead, the saturated per-flow bandwidth and the
// wire latency per destination. MPI_Alltoallw (Algorithm 2, Dalcin et al.) is
// a naive per-message loop with high setup cost; staging (if any) happens per
// message inside MsgCost — SpectrumMPI-like stacks are not GPU-aware on this
// path. The port is not modeled: the call owns the wire until it returns.
func priceNaive(c *Comm, ins []collIn, outs []collOut, kind naiveKind) {
	w := c.core.world
	m := w.model
	t0 := maxClock(ins)
	pad := 0
	if kind == kindAlltoall {
		for _, inp := range ins {
			for _, b := range inp.send {
				if b.Bytes() > pad {
					pad = b.Bytes()
				}
			}
		}
	}
	for r := range ins {
		srcW := c.WorldRank(r)
		dev, totalSend, totalRecv := traffic(ins, r, nil)
		var t float64
		staged := dev && !w.opts.GPUAware && kind != kindAlltoallw
		if staged {
			t += stagingCost(m, totalSend, totalRecv)
		}
		oh := m.HostOverheadColl
		if dev && !staged {
			oh = m.DeviceOverheadColl
		}
		for dst := range ins {
			bytes := ins[r].send[dst].Bytes()
			if dst == r {
				// Self block: a device-local copy.
				t += float64(bytes) * 2 / m.GPU.MemBW
				continue
			}
			if kind == kindAlltoall {
				bytes = pad
			} else if bytes == 0 {
				// MPI short-circuits zero-size blocks of the v and w flavours.
				continue
			}
			dstW := c.WorldRank(dst)
			if kind == kindAlltoallw {
				t += m.MsgCostOn(bytes, w.topo.Path(srcW, dstW), w.nodes, dev, w.opts.GPUAware, machine.ClassAlltoallw).Total()
			} else {
				t += oh + float64(bytes)/w.topo.NaiveFlowBW(srcW, dstW) + w.topo.Latency(srcW, dstW)
			}
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
// wire instead of overlapping for free.
func priceScheduled(c *Comm, ins []collIn, outs []collOut, impl CollectiveAlgo) {
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
	ex := &Exchange{
		Size:   size,
		Bytes:  make([][]int, size),
		Dev:    make([]bool, size),
		Factor: make([]float64, size),
		Start:  make([]float64, size),
		Ranks:  make([]int, size),
		Nodes:  w.nodes,
		Topo:   w.topo,
		M:      m,
	}
	for r := range ins {
		ex.Ranks[r] = c.WorldRank(r)
		ex.Factor[r] = ins[r].factor
		row := make([]int, size)
		dev, totalSend, totalRecv := traffic(ins, r, row)
		ex.Bytes[r] = row
		stage := 0.0
		staged := dev && !w.opts.GPUAware
		if staged {
			stage = stagingCost(m, totalSend, totalRecv)
		}
		ex.Dev[r] = dev && !staged
		// Staging copies ride PCIe, not the NIC: they start at local
		// arrival and overlap whatever transfer still occupies the
		// injection port — which is how a chunked pipeline hides the
		// host↔device hops of chunk k+1 under the wire time of chunk k.
		ex.Start[r] = math.Max(math.Max(t0, ins[r].clock+stage), ins[r].port)
	}
	comp := impl.Complete(ex)
	for r := range ins {
		t := comp[r]
		if by := ins[r].send[r].Bytes(); by > 0 {
			t += float64(by) * 2 / m.GPU.MemBW * ex.factor(r)
		}
		outs[r].clock, outs[r].port = t, comp[r]
	}
}

// postAlltoall runs the one all-to-all rendezvous. Prologue: fault entry
// (stalls, kills), the send-side envelope charge, defensive clones tagged with
// the rank's fault effects, and the injection-port snapshot. Rendezvous: the
// last arrival prices the exchange with p, transposes the send matrix into
// per-rank receive vectors, and pushes the completion of every rank expecting
// a block from a lost sender to +Inf. Epilogue: the port adopts the new
// busy-until time. The returned request is complete in every respect except
// that the caller's clock has not moved: finishAlltoall adopts the completion
// time. op names the call in fault errors and timeouts.
func (c *Comm) postAlltoall(send []Buf, p pricer, op string) CollRequest {
	size := c.Size()
	if len(send) != size {
		panic(fmt.Sprintf("mpisim: %s send slice has %d entries for size-%d comm", op, len(send), size))
	}
	st := c.state()
	start := st.clock

	eff := c.faultEnter(op)
	c.chargeSendChecksums(send)
	in := collIn{clock: st.clock, port: st.portFreeAt, send: make([]Buf, size), lost: eff.Drop}
	if eff.Factor > 1 {
		in.factor = eff.Factor
	}
	total := 0
	for i, b := range send {
		in.send[i] = b.clone()
		total += b.Bytes()
		if i == c.rank {
			continue
		}
		if eff.Corrupt {
			in.send[i].Corrupt = true
		}
		if eff.Silent > 0 {
			in.send[i].silent = eff.Silent
			in.send[i].flipSeed = mixSeed(eff.SilentSeed, i)
		}
	}
	out := c.core.rv.exchange(c.core.world, c.rank, in, func(ins []collIn) []collOut {
		outs := make([]collOut, size)
		p.price(c, ins, outs)
		for r := range outs {
			recv := make([]Buf, size)
			for s := range ins {
				recv[s] = ins[s].send[r]
			}
			outs[r].recv = recv
		}
		// Dropped contributions: every rank expecting a nonzero block from a
		// lost sender waits forever — its completion moves past any finite
		// bound and surfaces as ErrExchangeTimeout at completion.
		for r := range ins {
			if !ins[r].lost {
				continue
			}
			for dst := range ins {
				if dst != r && ins[r].send[dst].Bytes() > 0 {
					outs[dst].clock = math.Inf(1)
				}
			}
		}
		return outs
	})
	if out.port > st.portFreeAt {
		st.portFreeAt = out.port
	}
	return CollRequest{comm: c, postedAt: start, completeAt: out.clock, recv: out.recv, bytes: total, op: op}
}

// finishAlltoall completes a posted exchange: the clock advances to the
// exchange's completion (not at all if local work since the post already
// covered it), under the per-exchange timeout measured from the post; blocks
// flagged corrupt in transit fail verification; the integrity layer verifies,
// repairs or really corrupts the delivered payload. The trace event is named
// traceName and starts at traceStart — the post for a blocking call (one
// event per collective), the wait's own entry for a non-blocking one.
func (c *Comm) finishAlltoall(r *CollRequest, traceName string, traceStart float64) []Buf {
	st := c.state()
	if end := c.collClock(r.op, r.postedAt, r.completeAt); end > st.clock {
		st.clock = end
	}
	r.done = true
	c.record(traceName, traceStart, st.clock, r.bytes)
	for s, b := range r.recv {
		if b.Corrupt && s != c.rank {
			c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: %s block from rank %d failed verification",
				ErrMessageCorrupt, c.WorldRank(c.rank), r.op, c.WorldRank(s)))
		}
	}
	c.deliverIntegrity(r.recv, r.op)
	return r.recv
}

// blockingAlltoall is post + finish with nothing in between.
func (c *Comm) blockingAlltoall(send []Buf, p pricer, op string) []Buf {
	r := c.postAlltoall(send, p, op)
	return c.finishAlltoall(&r, op, r.postedAt)
}

// Alltoall exchanges send[dst] → recv[src] with MPI_Alltoall semantics: all
// blocks are padded to the maximum block size in the communicator, in
// exchange for the most optimized vendor algorithm.
func (c *Comm) Alltoall(send []Buf) []Buf {
	return c.blockingAlltoall(send, pricer{naive: kindAlltoall}, "MPI_Alltoall")
}

// Alltoallv exchanges exact per-pair sizes with the optimized collective
// path.
func (c *Comm) Alltoallv(send []Buf) []Buf {
	return c.blockingAlltoall(send, pricer{naive: kindAlltoallv}, "MPI_Alltoallv")
}

// Alltoallw models the generalized all-to-all on derived sub-array datatypes
// used by Algorithm 2 (Dalcin et al.): a naive Isend/Irecv loop with high
// per-message setup, and — on SpectrumMPI-like stacks — no GPU-awareness, so
// device buffers stage through PCIe per message.
func (c *Comm) Alltoallw(send []Buf) []Buf {
	return c.blockingAlltoall(send, pricer{naive: kindAlltoallw}, "MPI_Alltoallw")
}

// AlltoallvWith exchanges exact per-pair sizes like Alltoallv, but scheduled
// by the selected algorithm (pairwise exchange, ring streaming, Bruck
// log-step, or the node-aware two-level schedule). The received bytes are
// identical for every algorithm; only the virtual-time cost differs.
// AlgoLinear is timing-identical to Alltoallv. Scheduled exchanges also
// serialize through each rank's injection port, so chunked back-to-back
// exchanges pipeline honestly instead of overlapping for free.
func (c *Comm) AlltoallvWith(send []Buf, a Algo) []Buf {
	return c.blockingAlltoall(send, schedulePricer(a), "MPI_Alltoallv")
}
