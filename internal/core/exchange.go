package core

import (
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// exchange drives one reshape of a batch: pack(chunk) → post → wait →
// unpack(chunk), generic over the element type (complex128 for the transform
// pipeline, float64 for R2C input/output). Single-shot (one chunk),
// chunked-serial and chunked-overlapped are loop shapes over those four steps
// (run); per-entry-async splits them across the stage runner (start, finish).
// P2P, Alltoall, Alltoallw and scheduled Alltoallv are transports for the
// post/wait step.
//
// One ownership rule decides how a block travels: an array drawn from the
// staging pool belongs to the plan until its last reader is done with it. When
// the source arrays are plan-owned and nothing between sender and receiver
// needs wire bytes (lends), nothing is packed: the deposited block is
// size-only and carries a view of the sender's arrays, the receiver copies its
// box out of them with one tensor.CopyBox, and whoever copies last returns
// them to the pool — every element crosses memory once. Otherwise pack buffers
// are drawn from the pool and shipped with Move: the receiver takes ownership
// and returns them after unpacking. Either way no defensive copy is made, and
// the virtual charges (dev.Pack, dev.Unpack, Convert) are the same.
//
// A collective is described to the transport by the reshape's exchange
// pattern (frozen.chunk), fixed by the plan and shared world-wide; the
// transport prices from it alone. Blocks travel only when something must ride
// them: payload, views, or the per-block work of faults and integrity. A
// phantom exchange with none of that (isBare) builds no block list at all and
// charges pack and unpack from the pattern's element totals. Otherwise every
// step walks the reshape's peer lists (rs.sendPeers, rs.recvPeers) and speaks
// the transport's sparse exchange vectors, so what one call touches is
// proportional to the blocks this rank exchanges, not to the group. The
// vectors themselves come from blockPool (pool.go) and go back as soon as the
// transport is done with them, so a steady-state exchange allocates none.
type exchange[T any] struct {
	rs *reshapePlan
	e  *engine
	// datas[i] is batch entry i's local array over from (nil slices for
	// phantom batches); out[i] receives its new array over to, drawn on the
	// first unpack — after a single-shot exchange has recycled its inputs —
	// and stays nil for phantom batches. Both are the caller's (engine-held
	// scratch, see batchScratch): the caller reads out after the exchange.
	datas, out [][]T
	// from and to are the boxes datas and out are laid out over: rs.from and
	// rs.to, or the full grid on a side that works on the callers' whole-grid
	// arrays of a global batch (onGrid).
	from, to tensor.Box3
	drawn    bool
	phantom  bool
	// recycleIn marks datas as plan-owned (drawn from the staging pool by an
	// earlier stage of this execution, or left in the caller's fields by the
	// previous one and handed back): they return to the pool once packed, or —
	// when lent — once the last receiver has copied out of them. Arrays the
	// caller made are never pooled, written or read after the call returns.
	recycleIn bool
	// view is set when the exchange ships views instead of packing (lends):
	// the record its blocks point at.
	view *lent[T]

	algo    mpisim.Algo
	chunks  int
	overlap bool
	wire    WirePrecision
	eb, web int // full-precision and on-wire bytes per element
	// pats[ci] is chunk ci's exchange (collective backends); bare says no
	// block list is built for it (see isBare).
	pats []exchPattern
	bare bool

	// P2P receives, posted before packing (open): rreqs[i] receives block
	// rsrcs[i] of rs.recvs.
	rreqs []*mpisim.Request
	rsrcs []int
	// inflight is the exchange posted by start, completed by finish.
	inflight posted
}

// posted is one chunk's exchange after the post step.
type posted struct {
	req    *mpisim.CollRequest // non-blocking collective still in flight
	recv   []mpisim.Block      // blocking collective: the received blocks
	blocks []mpisim.Block      // P2P: the packed blocks
	sreqs  []*mpisim.Request   // P2P: non-blocking sends to complete
}

// onGrid marks the sides of an exchange that work on the callers' whole-grid
// arrays of a global batch not run in place (Plan.ForwardGlobal) instead of
// arrays over this rank's boxes: the input reshape packs its blocks straight
// out of them, the output reshape writes its boxes straight into them (out
// then holds them on arrival and nothing is drawn).
type onGrid struct{ in, out bool }

// arm readies x — in place, its previous contents dropped — to run this
// reshape for the batch: wire precision, and for the collective backends the
// exchange patterns and (Alltoallv) the schedule and chunking, read from the
// reshape's resolve table. Algorithm selection and chunking see the on-wire
// element size: a compressed exchange sits at a different point of the
// (bytes, latency) regime map than its full-precision twin. async (per-entry
// non-blocking exchanges) always runs one chunk.
func (x *exchange[T]) arm(e *engine, rs *reshapePlan, datas, out [][]T, phantom, recycleIn, async bool, grid onGrid) {
	*x = exchange[T]{}
	x.rs, x.e, x.datas, x.out, x.from, x.to = rs, e, datas, out, rs.from, rs.to
	x.phantom, x.recycleIn, x.chunks = phantom, recycleIn, 1
	if grid.in {
		x.from = tensor.FullBox(e.global)
	}
	if grid.out {
		x.to, x.drawn = tensor.FullBox(e.global), true
	}
	if rs.group == nil {
		return
	}
	x.wire = rs.wireOf(e.opts)
	x.eb = elemBytes[T]()
	x.web = WireElemSize(x.wire, x.eb)
	if x.lends() {
		x.view = scratchOf[T](e).lendOut(datas, x.from)
	}
	if e.caps.Collective {
		f := rs.resolved(e.opts, x.web, len(datas))
		x.algo, x.chunks, x.overlap, x.pats = f.algo, f.chunks, f.overlap, f.chunk
		if async {
			x.chunks, x.overlap, x.pats = 1, false, f.one
		}
		x.bare = x.isBare()
	}
}

// lends is the one predicate for shipping views instead of packed copies: the
// arrays are real and plan-owned — not a caller's, whose owner may overwrite
// them the moment the call returns while peers still read (a global batch
// whose every reshape would lend moves nothing at all: engine.inPlace) — and
// no layer between sender and receiver reads or rewrites the bytes: the wire
// is fp64 (a compressed block is rounded in place) and the world leaves the
// blocks untouched. All of these are constants of the world or the reshape,
// or the ownership the runner tracks; nothing sets them to get a view.
func (x *exchange[T]) lends() bool {
	return x.recycleIn && !x.phantom && x.wire == WireFp64 && untouched(x.rs.group)
}

// isBare is the one predicate for an exchange that builds no block list at
// all: a phantom batch (no payload to carry) on a collective backend (whose
// transport prices from the pattern alone), in a world that leaves the blocks
// untouched. Such an exchange charges dev.Pack, dev.Unpack and Convert from
// the pattern's element totals, in the order a block-carrying one does, so no
// clock can tell the two apart.
func (x *exchange[T]) isBare() bool {
	return x.phantom && x.e.caps.Collective && untouched(x.rs.group)
}

// untouched reports whether the world does no per-block work between sender
// and receiver: it neither checksums envelopes nor carries ABFT sums (both
// stream the packed block) and attaches no fault plan (silent corruption
// flips payload bits, retransmits re-read them, a fault tags or drops single
// blocks).
func untouched(c *mpisim.Comm) bool {
	return !c.Integrity().Enabled() && !c.FaultsAttached()
}

// lent is what a view points at: the sender's plan-owned arrays over from,
// and who still needs them — every deposited block not yet copied out, plus
// the sender until its last chunk is posted. The last to let go returns the
// arrays to the staging pool and leaves the record idle for the engine's next
// lending exchange (batchScratch.lendOut); a record whose holds never drain —
// the world failed mid-exchange — is simply dropped with its arrays.
type lent[T any] struct {
	datas [][]T
	from  tensor.Box3
	holds atomic.Int64
}

// lentIdle is lent.holds of a record nobody uses. It differs from zero, which
// the count passes through while the last holder is still pooling the arrays.
const lentIdle = -1

func (v *lent[T]) release() {
	if v.holds.Add(-1) > 0 {
		return
	}
	for i, d := range v.datas {
		putBuf(d)
		v.datas[i] = nil
	}
	v.holds.Store(lentIdle)
}

// run executes the whole exchange, leaving the arrays over rs.to in out (nil
// for phantom batches). Without overlap each chunk runs pack→post→wait→unpack
// serially; with overlap the exchange of chunk k is posted non-blocking and
// the pack of chunk k+1 plus the unpack of chunk k-1 execute while it is in
// flight (double-buffered through the pooled staging buffers). The
// simulator's injection-port gating keeps back-to-back chunk exchanges honest
// on the wire, and each chunk passes through the fault machinery
// independently, so kills/corruption mid-reshape surface at the failing chunk
// with the typed fault errors.
func (x *exchange[T]) run() {
	if x.rs.group == nil {
		x.bypass()
		return
	}
	x.open()
	if !x.overlap {
		for ci := 0; ci < x.chunks; ci++ {
			x.e.checkCtx()
			x.unpack(ci, x.post(ci, x.pack(ci), false))
		}
		return
	}
	x.e.checkCtx()
	h := x.post(0, x.pack(0), true)
	for ci := 1; ci <= x.chunks; ci++ {
		var next posted
		if ci < x.chunks {
			x.e.checkCtx()
			next = x.post(ci, x.pack(ci), true)
		}
		x.unpack(ci-1, h)
		h = next
	}
}

// start packs and posts the exchange non-blocking; finish completes it. Ranks
// outside the exchange group post nothing and take the new (empty) box at
// finish.
func (x *exchange[T]) start() {
	if x.rs.group != nil {
		x.inflight = x.post(0, x.pack(0), true)
	}
}

func (x *exchange[T]) finish() {
	if x.rs.group == nil {
		x.bypass()
		return
	}
	x.unpack(0, x.inflight)
}

// bypass is the exchange of a rank that holds no data on either side: its
// local share simply becomes empty (or stays untouched when the rank re-enters
// later via another stage).
func (x *exchange[T]) bypass() {
	x.alloc()
	recycleDatas(x.datas, x.recycleIn)
}

// alloc draws the target-distribution arrays from the staging pool. They are
// not zeroed: the receive boxes of a group tile rs.to exactly (the source
// boxes tile the global grid), so unpacking overwrites every element.
func (x *exchange[T]) alloc() {
	if x.phantom || x.drawn {
		return
	}
	x.drawn = true
	for i := range x.out {
		x.out[i] = getBuf[T](x.rs.to.Volume())
	}
}

// open readies the transport before anything is packed: the P2P backends post
// all their receives first (heFFTe's MPI_Irecv loop).
func (x *exchange[T]) open() {
	if x.e.caps.Collective {
		return
	}
	g, rs := x.rs.group, x.rs
	x.rreqs = make([]*mpisim.Request, 0, len(rs.recvPeers))
	x.rsrcs = make([]int, 0, len(rs.recvPeers))
	for k, gi := range rs.recvPeers {
		if k != rs.selfRecv {
			x.rreqs = append(x.rreqs, g.Irecv(gi, rs.tag))
			x.rsrcs = append(x.rsrcs, k)
		}
	}
}

// pack builds chunk ci's send list: one block per peer the chunk has data for,
// in ascending peer order, the batch fused into each block — the mechanism
// behind the batched-transform speedups of Fig. 13. Chunks are whole axis-0
// rows of every pair box. With ABFT invariants on, every packed block
// carries its element sum in the message envelope (verified after unpack) and
// the fused sum pass is charged — unless the transport's checksummed envelopes
// already bill that stream.
//
// On a compressed wire the down-conversion fuses into the pack: each block is
// rounded to the wire grid in place after packing — the exact values a
// receiver observes after the down/up round trip — every buffer is stamped
// with the wire format so all transport costs price the narrow bytes, and one
// convert pass over the full-width side of the stream is charged. The
// envelope sum is taken before rounding (it rides the pack kernel's
// full-precision read), so envelope verification under compression is
// tolerance-based (see verifyEnvelope). The pack kernel is charged for the
// on-wire bytes it writes; a backend without pack kernels (MPI_Alltoallw,
// Algorithm 2, hands the library derived sub-array datatypes) charges none.
//
// A lending exchange builds the same list with nothing in it: each block is
// size-only — Elems, Bytes, Loc and Wire are what the packed block would have
// had — and points at the view. A bare exchange builds no list at all: the
// pattern's send total is what the blocks would have added up to.
func (x *exchange[T]) pack(ci int) []mpisim.Block {
	rs, dev := x.rs, x.e.dev
	ic := rs.group.Integrity()
	var blocks []mpisim.Block
	var elems int
	if x.bare {
		elems = x.pats[ci].send
	} else {
		blocks, elems = x.packBlocks(ci)
	}
	wireBytes, fullBytes := x.web*elems, x.eb*elems
	if x.wire != WireFp64 {
		dev.Convert(fullBytes)
	}
	if ic.Invariants && !ic.Checksums {
		rs.group.ChargeChecksum(wireBytes)
	}
	if x.view != nil {
		// Every block just listed is a reader to wait for; the sender's own
		// hold lasts until no further chunk will point at the arrays.
		x.view.holds.Add(int64(len(blocks)))
		if ci == x.chunks-1 {
			x.view.release()
		}
	} else if ci == x.chunks-1 {
		// The inputs are fully drained once the last chunk is packed.
		recycleDatas(x.datas, x.recycleIn)
	}
	if x.e.caps.Packs {
		dev.Pack(wireBytes, x.e.opts.Contiguous)
	}
	return blocks
}

// packBlocks builds chunk ci's send list and reports the elements it holds.
func (x *exchange[T]) packBlocks(ci int) ([]mpisim.Block, int) {
	rs := x.rs
	blocks := getBlocks(len(rs.sendPeers))
	ic := rs.group.Integrity()
	total := 0
	for k, gi := range rs.sendPeers {
		cb := chunkBox(rs.sends.at(k), ci, x.chunks)
		vol := cb.Volume()
		if vol == 0 {
			continue
		}
		elems := vol * len(x.datas)
		total += elems
		// The block is written once, where it is deposited: the list has room
		// for every peer, and the receiver reads this very entry.
		blocks = blocks[:len(blocks)+1]
		b := &blocks[len(blocks)-1]
		b.Peer = gi
		if x.phantom || x.view != nil {
			setBuf[T](&b.Buf, nil, elems, x.wire)
			if x.view != nil {
				b.Buf.View = x.view
			}
			continue
		}
		data := getBuf[T](elems)
		off := 0
		for _, d := range x.datas {
			tensor.Pack(d, x.from, cb, data[off:off+vol])
			off += vol
		}
		setBuf(&b.Buf, data, 0, x.wire)
		b.Buf.Move = true
		if ic.Invariants {
			envelopeSum(&b.Buf, data)
		}
		quantizeSlice(x.wire, data)
	}
	return blocks, total
}

// post hands chunk ci's packed blocks to the transport — the one place that
// names backends: the table says what a backend runs, this dispatch which MPI
// routine runs it. Blocking transports complete here; async (a backend with a
// non-blocking variant: MPI_Ialltoallv) posts under the resolved schedule and
// leaves the exchange in flight. A collective goes with the chunk's pattern,
// delivers into a receive list drawn here — none for a bare exchange, which
// has nothing to deliver — and is done with the send list when it returns, so
// that goes straight back to the pool.
func (x *exchange[T]) post(ci int, blocks []mpisim.Block, async bool) posted {
	g, rs := x.rs.group, x.rs
	// Pack buffers live on the device, whether or not this rank packed any.
	const loc = machine.Device
	if x.e.caps.Collective {
		var h posted
		var recv []mpisim.Block
		if !x.bare {
			recv = getBlocks(len(rs.recvPeers))
		}
		pat := x.pats[ci].pat
		switch x.e.opts.Backend {
		case BackendAlltoallv:
			if async {
				h.req = g.IalltoallvSparse(pat, blocks, recv, loc, x.algo)
			} else {
				h.recv = g.AlltoallvSparse(pat, blocks, recv, loc, x.algo)
			}
		case BackendAlltoall:
			h.recv = g.AlltoallSparse(pat, blocks, recv, loc)
		case BackendAlltoallw:
			h.recv = g.AlltoallwSparse(pat, blocks, recv, loc)
		}
		putBlocks(blocks)
		return h
	}
	// Point-to-Point (Table I): stream the sends, MPI_Isend or blocking
	// MPI_Send. The P2P transports never chunk, so every peer has a block:
	// blocks[k] is the block for rs.sendPeers[k].
	h := posted{blocks: blocks}
	if x.e.opts.Backend != BackendP2PBlocking {
		h.sreqs = make([]*mpisim.Request, 0, len(blocks))
	}
	for k, b := range blocks {
		if k == rs.selfSend {
			continue
		}
		if x.e.opts.Backend == BackendP2PBlocking {
			g.Send(b.Peer, rs.tag, b.Buf)
		} else {
			h.sreqs = append(h.sreqs, g.Isend(b.Peer, rs.tag, b.Buf))
		}
	}
	return h
}

// unpack waits for chunk ci and scatters it into the new arrays, then charges
// the receive side once: ABFT envelope verification, the unpack kernel over
// the on-wire bytes, and the up-conversion of a compressed stream. Collective
// transports unpack in one kernel after the call — a bare exchange, which
// received no list, charges the pattern's receive total; the P2P transports
// unpack arrivals in completion order (MPI_Waitany) and charge a kernel per
// message, the local share first — it never touches the network; a backend
// without pack kernels (MPI_Alltoallw) has no unpack kernel.
func (x *exchange[T]) unpack(ci int, h posted) {
	g, rs, dev, opts := x.rs.group, x.rs, x.e.dev, x.e.opts
	x.alloc()
	// Every non-empty block of the chunk is delivered exactly once, so the
	// received element count accumulates as the blocks land.
	elems := 0
	if x.e.caps.Collective {
		all := h.recv
		if h.req != nil {
			all = g.WaitSparse(h.req)
		}
		if x.bare {
			elems = x.pats[ci].recv
		} else {
			elems = x.unpackList(ci, all)
		}
		putBlocks(all)
	} else {
		if rs.selfSend >= 0 {
			elems = x.unpackBlock(ci, rs.selfRecv, &h.blocks[rs.selfSend].Buf)
			dev.Unpack(x.web*elems, opts.Contiguous)
		}
		for range x.rreqs {
			i, buf := g.Waitany(x.rreqs)
			elems += x.unpackBlock(ci, x.rsrcs[i], &buf)
			dev.Unpack(buf.Bytes(), opts.Contiguous)
		}
		if len(h.sreqs) > 0 {
			g.Waitall(h.sreqs)
		}
		putBlocks(h.blocks)
	}
	wireBytes := x.web * elems
	// The transport's checksummed delivery charges its own verify pass over
	// the same read stream, so the envelope pass is only billed when the
	// envelopes are the sole line of defense.
	if ic := g.Integrity(); ic.Invariants && !ic.Checksums {
		g.ChargeChecksumVerify(wireBytes)
	}
	if x.e.caps.BulkUnpack {
		dev.Unpack(wireBytes, opts.Contiguous)
	}
	if x.wire != WireFp64 {
		dev.Convert(x.eb * elems)
	}
}

// unpackList scatters a collective's receive list of chunk ci into the new
// arrays and reports the elements received. Both the list and the reshape's
// receive peers ascend by source, and a source sends a block exactly when its
// chunk of the pair box is non-empty — walk them together. (A faulty sender's
// zero-size blocks are passed over.)
func (x *exchange[T]) unpackList(ci int, recv []mpisim.Block) int {
	elems := 0
	for k, gi := range x.rs.recvPeers {
		for len(recv) > 0 && recv[0].Peer < gi {
			recv = recv[1:]
		}
		var buf *mpisim.Buf
		if len(recv) > 0 && recv[0].Peer == gi {
			buf = &recv[0].Buf
		}
		elems += x.unpackBlock(ci, k, buf)
	}
	return elems
}

// unpackBlock scatters the received block of chunk ci of pair box rs.recvs.at(k)
// into the new arrays — verifying its ABFT envelope sum first when one is
// attached — returns the buffer to the staging pool, and reports the elements
// received. A block that carries a view is copied box to box out of its
// sender's arrays instead (the sender decides per exchange; the receiver only
// looks at what arrived). buf is nil when nothing arrived for the pair
// (phantom batches and empty chunks never look at it).
func (x *exchange[T]) unpackBlock(ci, k int, buf *mpisim.Buf) int {
	cb := chunkBox(x.rs.recvs.at(k), ci, x.chunks)
	vol := cb.Volume()
	if vol == 0 || x.phantom {
		return vol * len(x.datas)
	}
	if v, ok := buf.View.(*lent[T]); ok {
		for fi := range x.out {
			tensor.CopyBox(x.out[fi], x.to, v.datas[fi], v.from, cb)
		}
		v.release()
		return vol * len(x.datas)
	}
	verifyEnvelope[T](x.rs.group, x.rs.recvPeers[k], buf, x.rs.label)
	src := bufSlice[T](buf)
	off := 0
	for fi := range x.out {
		tensor.Unpack(x.out[fi], x.to, cb, src[off:off+vol])
		off += vol
	}
	recycleRecv[T](buf)
	return vol * len(x.datas)
}
