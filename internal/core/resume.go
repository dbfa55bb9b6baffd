package core

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Elastic resume: after a World.Shrink, a plan rebuilt over the survivors
// calls ResumeBatch to finish the interrupted execution from the last stage
// boundary every old rank had checkpointed, instead of re-executing the
// transform from its input. The recovery reshape that redistributes the
// host-resident checkpoints to the survivor decomposition is a plain P2P
// exchange priced in virtual time like any other, and envelope-sum protected
// so a silent flip during recovery surfaces as ErrIntegrity rather than a
// wrong answer.

// beginCheckpoints opens this rank's checkpoint trail. Checkpoints are keyed
// by world rank and located by physical GPU slot (the host DRAM that holds
// them survives the GPU), so elastic plans are built on the world
// communicator, as the serving layer does.
func (e *engine) beginCheckpoints(ck *CheckpointStore, dir fft.Direction, batch int, phantom bool) {
	w := e.comm.World()
	wr := e.comm.WorldRank(e.comm.Rank())
	ck.begin(wr, worldSlots(w)[wr], e.global, e.decomp, dir, batch, phantom, w.Size())
}

// worldSlots is the world's rank → physical GPU slot map, built once per
// world.
func worldSlots(w *mpisim.World) []int {
	return w.Shared("core/slots", func() any {
		return w.Topo().Placement().Slots(w.Model(), w.Size())
	}).([]int)
}

// saveBoundary checkpoints the batch's current state under label: a host
// staging copy of every entry's box (cut out of the whole grid while the
// fields are a global batch's arrays), charged through the device's Retain
// kernel (the ABFT snapshot price — Fig. 10's fused-copy bandwidth).
func (e *engine) saveBoundary(ck *CheckpointStore, label string, b *batch) {
	fields := b.fields
	box := fields[0].Box
	vol := box.Volume()
	if bytes := 16 * vol * len(fields); bytes > 0 {
		e.dev.Retain(bytes)
	}
	own := box
	if b.wide {
		own = tensor.FullBox(e.global)
	}
	var datas [][]complex128
	if !b.phantom() {
		datas = make([][]complex128, len(fields))
		for i, f := range fields {
			d := getBuf[complex128](vol)
			tensor.Pack(f.Data, own, box, d)
			datas[i] = d
		}
	}
	ck.save(e.comm.WorldRank(e.comm.Rank()), label, box, datas)
}

// ResumeBatch finishes the execution interrupted by the rank failure that
// shrank the world. It is collective over the plan's communicator — every
// survivor rank of the new world must call it exactly once, on a plan built
// over the survivor count with the same checkpoint store attached (and the
// old execution's resolved decomposition pinned, see CheckpointStore.Decomp).
//
// The call detaches the old world's checkpoints, cuts at the deepest
// boundary every old rank completed, redistributes that boundary's data to
// the survivor decomposition (the recovery reshape), and re-enters the
// pipeline there. The returned fields carry the finished batch at the plan's
// output distribution; its values are bit-identical to a clean run of the
// batch at the survivor count, because every compute stage spans a full
// transform axis and reshapes move data exactly.
//
// Errors: an unresumable interruption (a rank died before checkpointing
// anything, or a dead node took the only copy of a checkpoint with it)
// returns an error and leaves the caller the evict-and-rebuild restart path;
// faults during recovery surface as the usual typed errors.
func (p *Plan) ResumeBatch() (fs []*Field, err error) {
	if p.closed {
		return nil, fmt.Errorf("core: %w", ErrPlanClosed)
	}
	ck := p.opts.Checkpoints
	if ck == nil {
		return nil, fmt.Errorf("core: %w: ResumeBatch on a plan without a checkpoint store", ErrBadConfig)
	}
	p.curPhase = "recovery"
	defer p.recoverFault(nil, &err)

	// One snapshot per world: the first rank in detaches the trails, the
	// rest share them (resume happens at most once per shrink).
	key := fmt.Sprintf("core/resume/%v/%d", p.global, p.comm.World().Epoch())
	snap := p.comm.World().Shared(key, func() any { return ck.detach() }).(*ckptSnapshot)

	if snap.global != p.global {
		return nil, fmt.Errorf("core: resume: checkpoints cover grid %v, plan is %v", snap.global, p.global)
	}
	if snap.decomp != p.decomp {
		return nil, fmt.Errorf("core: resume: checkpoints use %v decomposition, plan resolved %v (pin it via CheckpointStore.Decomp)", snap.decomp, p.decomp)
	}
	cut, err := snap.cut()
	if err != nil {
		return nil, err
	}

	// Map the cut boundary into the survivor plan's stage list. Labels are
	// deterministic functions of (global, decomposition), but a re-plan at a
	// different rank count may skip a reshape the old plan had (or vice
	// versa); walk the cut back until a label both plans share.
	from := -1
	for ; cut >= 0; cut-- {
		label := snap.boundary(0, cut).label
		if label == inputBoundary {
			from = 0
			break
		}
		for si := range p.stages {
			if p.stages[si].label == label {
				from = si + 1
				break
			}
		}
		if from >= 0 {
			break
		}
	}
	if from < 0 {
		return nil, fmt.Errorf("core: resume: no checkpointed boundary matches the survivor plan's stages")
	}

	dist := p.dists[from]
	myBox := dist[p.comm.Rank()]
	fields := make([]*Field, snap.batch)
	for i := range fields {
		if snap.phantom {
			fields[i] = NewPhantom(myBox)
		} else {
			fields[i] = NewField(myBox)
		}
	}

	p.curPhase = "recovery reshape"
	if err := p.recoveryReshape(snap, cut, dist, fields); err != nil {
		return nil, err
	}
	if err := p.run(p.stages, &batch{fields: fields}, snap.dir, from, batchFused); err != nil {
		return nil, err
	}
	return fields, nil
}

// sources maps every old rank to the survivor of world w serving its
// checkpoint of boundary cut: the survivor on the old rank's own slot when it
// lived, the lowest-ranked survivor on its node when it died (-1 when the
// node is gone and the checkpoint held nothing anyone needs).
func (snap *ckptSnapshot) sources(w *mpisim.World, cut int) ([]int, error) {
	gpn := w.Model().GPUsPerNode
	newSlots := worldSlots(w)
	// slot → the survivor occupying it, and node → lowest survivor there.
	slotOwner := make(map[int]int, len(newSlots))
	host := make(map[int]int, len(newSlots))
	for r := len(newSlots) - 1; r >= 0; r-- {
		slotOwner[newSlots[r]] = r
		host[newSlots[r]/gpn] = r
	}
	src := make([]int, snap.ranks)
	for o := 0; o < snap.ranks; o++ {
		if r, ok := slotOwner[snap.logs[o].slot]; ok {
			src[o] = r
			continue
		}
		node := snap.logs[o].slot / gpn
		r, ok := host[node]
		if !ok {
			if !snap.boundary(o, cut).box.Empty() {
				return nil, fmt.Errorf("core: resume infeasible: no survivor on node %d to serve rank %d's checkpoint", node, o)
			}
			src[o] = -1
			continue
		}
		src[o] = r
	}
	return src, nil
}

// recoveryReshape redistributes the cut boundary from the old world's
// checkpoints to the survivor distribution dist. A surviving rank still sits
// on its old physical slot, so it serves its own checkpoint — the recovery
// spreads across every survivor's port like an ordinary reshape instead of
// funneling through one rank per node. Only a dead rank's checkpoint needs a
// proxy: the lowest-ranked survivor on its physical node (host DRAM is a node
// resource, so it survives any GPU on the node dying — but not the whole node
// dropping out, which makes the resume infeasible). Each serving rank pays
// one PCIe upload of the retained boundary onto its GPU; the redistribution
// itself then rides a single device-resident all-to-all collective, priced
// exactly like the pipeline's own reshapes — not a storm of per-pair P2P
// messages whose posting overheads would swamp the data at scale.
func (p *Plan) recoveryReshape(snap *ckptSnapshot, cut int, dist []tensor.Box3, fields []*Field) error {
	c := p.comm
	w := c.World()
	me := c.Rank()
	newSize := c.Size()
	// Who serves which checkpoint is the same answer on every survivor: work
	// it out once per world.
	type sources struct {
		src []int
		err error
	}
	srcs := w.Shared(fmt.Sprintf("core/resume-sources/%v/%d/%d", p.global, w.Epoch(), cut), func() any {
		src, err := snap.sources(w, cut)
		return sources{src, err}
	}).(sources)
	if srcs.err != nil {
		return srcs.err
	}
	src := srcs.src

	batch := snap.batch
	ic := c.Integrity()

	// One PCIe upload per checkpoint this rank serves; after that every
	// share is device-resident.
	for o := 0; o < snap.ranks; o++ {
		if src[o] != me {
			continue
		}
		if v := snap.boundary(o, cut).box.Volume(); v > 0 {
			p.dev.Copy(16 * v * batch)
		}
	}

	// Build the collective: the block for survivor d concatenates, in old-rank
	// order, every share this rank serves that lands on d's survivor box, all
	// batch entries fused. Both sides derive the same (src, old-rank) order
	// from the shared snapshot, so no headers travel.
	var send []mpisim.Block
	sendBytes := 0
	for d := 0; d < newSize; d++ {
		elems := 0
		for o := 0; o < snap.ranks; o++ {
			if src[o] != me {
				continue
			}
			if sub := tensor.Intersect(snap.boundary(o, cut).box, dist[d]); !sub.Empty() {
				elems += sub.Volume() * batch
			}
		}
		if elems == 0 {
			continue
		}
		sendBytes += 16 * elems
		if snap.phantom {
			send = append(send, mpisim.Block{Peer: d, Buf: mpisim.Buf{N: elems, Loc: machine.Device}})
			continue
		}
		payload := getBuf[complex128](elems)
		off := 0
		for o := 0; o < snap.ranks; o++ {
			if src[o] != me {
				continue
			}
			b := snap.boundary(o, cut)
			sub := tensor.Intersect(b.box, dist[d])
			if sub.Empty() {
				continue
			}
			vol := sub.Volume()
			for fi := range b.data {
				tensor.Pack(b.data[fi], b.box, sub, payload[off:off+vol])
				off += vol
			}
		}
		buf := mpisim.Buf{Data: payload, Loc: machine.Device, Move: true}
		if ic.Invariants {
			envelopeSum(&buf, payload)
		}
		send = append(send, mpisim.Block{Peer: d, Buf: buf})
	}
	p.dev.Pack(sendBytes, false)
	if ic.Invariants && !ic.Checksums {
		c.ChargeChecksum(sendBytes)
	}

	recv := c.AlltoallvSparse(nil, send, nil, machine.Device, mpisim.AlgoLinear)

	// Unpack arrivals in the mirrored deterministic order.
	recvBytes := 0
	for i := range recv {
		s, buf := recv[i].Peer, &recv[i].Buf
		off := 0
		for o := 0; o < snap.ranks; o++ {
			if src[o] != s {
				continue
			}
			sub := tensor.Intersect(snap.boundary(o, cut).box, dist[me])
			if sub.Empty() {
				continue
			}
			vol := sub.Volume()
			recvBytes += 16 * vol * batch
			if !snap.phantom {
				for _, f := range fields {
					tensor.Unpack(f.Data, f.Box, sub, buf.Data[off:off+vol])
					off += vol
				}
			}
		}
		// Recovery ships full precision, so a clean delivery reproduces the
		// envelope bit-for-bit; a mismatch leaves restart as the fallback.
		verifyEnvelope[complex128](c, s, buf, "checkpoint recovery")
		if !snap.phantom {
			recycleRecv[complex128](buf)
		}
	}
	if ic.Invariants && !ic.Checksums {
		c.ChargeChecksumVerify(recvBytes)
	}
	p.dev.Unpack(recvBytes, false)
	return nil
}
