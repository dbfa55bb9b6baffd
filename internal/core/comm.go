package core

import (
	"fmt"

	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// This file is the plan-level half of the pluggable collective subsystem:
// per-phase exchange statistics, the CollAuto selection — which asks the
// simulator what each schedule costs — and the chunking policy the exchange
// driver (exchange.go) executes.

// autoChunkBytes is the per-rank send volume above which the auto policy
// splits a *staged* reshape into pipeline chunks. Chunking only pays where
// the pipeline hides real serial work: on the non-GPU-aware path each
// chunk's PCIe staging overlaps the previous chunk's wire time. GPU-aware
// exchanges have only pack kernels to hide — cheaper than the per-chunk
// posting and launch overheads at every measured shape — so the auto policy
// leaves them whole (chunking remains available by explicit request).
const autoChunkBytes = 2 << 20

// autoChunks is the pipeline depth the auto policy uses once chunking pays.
const autoChunks = 4

// exchStats summarizes one reshape's exchange graph across the whole group:
// what the chunking policy and CommPhase.Schedule read. It is a pure function
// of the global box lists and rank placement, and symmetric in the direction
// of the exchange, so every member — and the reversed copy of a reshape —
// shares identical values.
type exchStats struct {
	gs         int // group size
	pairs      int // ordered (src,dst) pairs with payload, src != dst
	totalElems int // sum of off-diagonal pair volumes (elements)
	maxRows    int // largest axis-0 extent of a pair box (chunk bound)
	nodes      int // distinct nodes the group occupies
	maxPerNode int // largest per-node member count
}

// groupStats starts one exchange group's statistics from its placement; the
// reshape analysis adds the off-diagonal overlaps it finds (add).
func groupStats(sys *topo.System, worldOf func(int) int, members []int) *exchStats {
	st := &exchStats{gs: len(members)}
	perNode := map[int]int{}
	for _, r := range members {
		perNode[sys.Node(worldOf(r))]++
	}
	st.nodes = len(perNode)
	for _, c := range perNode {
		if c > st.maxPerNode {
			st.maxPerNode = c
		}
	}
	return st
}

// add records an off-diagonal block of the exchange.
func (st *exchStats) add(b tensor.Box3) {
	st.pairs++
	st.totalElems += b.Volume()
	if r := b.Size(0); r > st.maxRows {
		st.maxRows = r
	}
}

// simAlgos maps each CollAlgo to the simulator schedule it forces; CollAuto
// picks per phase (pickAlgo) and runs linear where nothing is picked.
var simAlgos = [...]mpisim.Algo{
	CollAuto: mpisim.AlgoLinear, CollLinear: mpisim.AlgoLinear, CollPairwise: mpisim.AlgoPairwise,
	CollRing: mpisim.AlgoRing, CollBruck: mpisim.AlgoBruck, CollNodeAware: mpisim.AlgoNodeAware,
}

// collAlgoOf maps a simulator schedule back to its facade-level name.
func collAlgoOf(a mpisim.Algo) CollAlgo {
	for c := CollLinear; int(c) < len(simAlgos); c++ {
		if simAlgos[c] == a {
			return c
		}
	}
	return CollLinear
}

// pickAlgo is the CollAuto policy: price this phase's real exchange — every
// member's row of the byte matrix, at the given on-wire element size and batch
// width — under each schedule with the simulator's own pricer
// (mpisim.Comm.PriceAlltoallv) and keep the cheapest. Candidates are tried in
// the order linear, ring, pairwise, Bruck, node-aware (the last only where the
// group spans more than one node) and only a strictly cheaper one displaces an
// earlier one. The rows are the unchunked exchange's pattern, the world's
// shared one an unchunked execution is priced from too, so the answer is a
// pure function of the group and is computed once per world; every member
// reads the same value without negotiation.
//
// The price is that of an idle group: it cannot see the entry skew the
// previous phase leaves behind, so two schedules within a few percent of each
// other on a ragged node layout may rank the other way in situ (EXPERIMENTS.md
// at 0cef092, "One collective cost engine").
func pickAlgo(rs *reshapePlan, web, batch int) mpisim.Algo {
	key := fmt.Sprintf("%s/pick/%d/%t/%d/%d", rs.tab.key, rs.root, rs.reversed, web, batch)
	return rs.group.World().Shared(key, func() any {
		rows := rs.pattern(web*batch, 0, 1).Rows
		cands := []mpisim.Algo{mpisim.AlgoLinear, mpisim.AlgoRing, mpisim.AlgoPairwise, mpisim.AlgoBruck, mpisim.AlgoNodeAware}
		if rs.stats.nodes <= 1 {
			cands = cands[:4] // no second level to schedule
		}
		best, bt := cands[0], rs.group.PriceAlltoallv(rows, cands[0])
		for _, a := range cands[1:] {
			if t := rs.group.PriceAlltoallv(rows, a); t < bt {
				best, bt = a, t
			}
		}
		return best
	}).(mpisim.Algo)
}

// frozen is one row of a reshape's resolve table: the (schedule, chunk count,
// overlap) the phase runs with at one on-wire element size and batch width,
// and the exchanges that follow — chunk[ci] is chunk ci's, one the unchunked
// exchange a per-entry post runs whatever chunks says (the same slice when
// chunks is 1).
type frozen struct {
	web, batch int
	algo       mpisim.Algo
	chunks     int
	overlap    bool
	chunk, one []exchPattern
}

// exchPattern is one exchange as the plan fixes it: the group's pattern, which
// mpisim prices every call from and which the world shares between the
// group's members, and this rank's element totals (batch included, self block
// included), which size its pack and unpack charges when no block list is
// built (exchange.bare).
type exchPattern struct {
	pat        *mpisim.Pattern
	send, recv int
}

// exchPattern returns chunk ci of chunks of this reshape's exchange at web
// on-wire bytes per element and batch width batch.
func (rs *reshapePlan) exchPattern(web, batch, ci, chunks int) exchPattern {
	x := exchPattern{pat: rs.pattern(web*batch, ci, chunks)}
	for k := range rs.sendPeers {
		x.send += chunkBox(rs.sends.at(k), ci, chunks).Volume() * batch
	}
	for k := range rs.recvPeers {
		x.recv += chunkBox(rs.recvs.at(k), ci, chunks).Volume() * batch
	}
	return x
}

// resolved answers how this phase runs at the given on-wire element size and
// batch width from the reshape's table, resolving on first use. The answer is
// a function of the plan (options, group, exchange matrix, machine) and of
// nothing a call can change, so it is decided once — the MPI_Alltoallv_init
// of a persistent collective — and every later exchange, per-entry post and
// CommPhases reads the row. The table grows by one row per distinct width the
// plan is executed at (batch width is only known at execution, and a serving
// engine alternates between a handful). Rank-local like the plan itself; only
// called for ranks inside the group, on a collective backend.
func (rs *reshapePlan) resolved(opts Options, web, batch int) *frozen {
	for _, f := range rs.table {
		if f.web == web && f.batch == batch {
			return f
		}
	}
	f := &frozen{web: web, batch: batch}
	f.algo, f.chunks, f.overlap = rs.resolve(opts, web, batch)
	f.one = []exchPattern{rs.exchPattern(web, batch, 0, 1)}
	f.chunk = f.one
	if f.chunks > 1 {
		f.chunk = make([]exchPattern, f.chunks)
		for ci := range f.chunk {
			f.chunk[ci] = rs.exchPattern(web, batch, ci, f.chunks)
		}
	}
	rs.table = append(rs.table, f)
	return f
}

// resolve turns the plan's CommConfig into the concrete (schedule, chunk
// count, overlap) this phase runs with, given the element size and batch
// width of the execution. Execution reaches it only through the reshape's
// table (resolved). Only a backend that runs schedules (its Capabilities)
// schedules and chunks; the other collectives run one unchunked vendor call.
func (rs *reshapePlan) resolve(opts Options, eb, batch int) (mpisim.Algo, int, bool) {
	if !opts.Backend.Capabilities().Schedules {
		return mpisim.AlgoLinear, 1, false
	}
	cc := opts.Comm
	st := rs.stats

	algo := simAlgos[cc.Algo]
	if cc.Algo == CollAuto && st.pairs > 0 {
		algo = pickAlgo(rs, eb, batch)
	}

	chunks := cc.Chunks
	if chunks <= 0 {
		chunks = 1
		if st.pairs > 0 && !rs.group.GPUAware() {
			perRank := float64(st.totalElems) / float64(st.gs) * float64(eb*batch)
			if perRank >= autoChunkBytes {
				chunks = autoChunks
			}
		}
	}
	// Chunks slice the pair boxes along axis 0; depth beyond the tallest pair
	// box only produces empty exchanges.
	if chunks > 1 && chunks > st.maxRows {
		chunks = st.maxRows
		if chunks < 1 {
			chunks = 1
		}
	}

	overlap := chunks > 1
	if cc.Overlap == OverlapOff {
		overlap = false
	}
	return algo, chunks, overlap
}

// chunkBox returns slice ci of n along axis 0 of pair box b. Sender and
// receiver derive their chunks from the same intersection box, so the
// payloads of every chunk match without negotiation.
func chunkBox(b tensor.Box3, ci, n int) tensor.Box3 {
	if n == 1 || b.Empty() {
		return b
	}
	sz := b.Hi[0] - b.Lo[0]
	out := b
	out.Lo[0] = b.Lo[0] + ci*sz/n
	out.Hi[0] = b.Lo[0] + (ci+1)*sz/n
	return out
}

// CommPhase reports how one communication phase of the plan is configured:
// the schedule a scheduling backend resolved (after the CollAuto selection;
// linear on every other backend) and the pipeline depth of the chunked path.
// Exposed through the facade so serving stats and tooling can observe tuning
// decisions.
type CommPhase struct {
	Label     string
	GroupSize int // ranks in this phase's exchange group (0 = not involved)
	Algo      CollAlgo
	Chunks    int
	Overlap   bool
	// Schedule describes the level structure the resolved algorithm runs:
	// "2-level(N nodes × ≤g ranks)" for the hierarchical schedule, "flat"
	// for single-level ones. Empty when this rank is not in the group.
	Schedule string
	// Checksummed reports whether this phase's exchange runs under the
	// integrity layer (transport checksum envelopes and/or ABFT envelope
	// sums), so per-phase checksum compute/verify passes are priced into
	// virtual time.
	Checksummed bool
	// Wire is the on-wire element precision this phase's payloads ship at:
	// the configured compressed format for interior reshapes, WireFp64 for
	// input/output reshapes.
	Wire WirePrecision
	// Epoch is the world epoch the phase executes under (0 for a fresh
	// world, +1 per elastic shrink), so operators can see which incarnation
	// of the rank set a reported plan belongs to.
	Epoch int
	// Survivors lists the epoch-0 world ranks the executing world descends
	// from, in world-rank order — the survivor set after elastic shrinks.
	// Nil at epoch 0, where it would be the identity.
	Survivors []int
}

// CommPhases reports the resolved per-phase communication configuration for
// a single-field complex transform — the width-1 row of every reshape's
// resolve table. Phases this rank does not participate in report GroupSize 0.
// Like execution, call it from the goroutine that runs the plan.
func (p *Plan) CommPhases() []CommPhase {
	var out []CommPhase
	for _, st := range p.stages {
		if st.kind != stageReshape {
			continue
		}
		rs := st.rs
		cp := CommPhase{Label: rs.label, Algo: CollLinear, Chunks: 1, Epoch: p.comm.World().Epoch()}
		if cp.Epoch > 0 {
			cp.Survivors = p.comm.World().OriginRanks()
		}
		if rs.group != nil {
			cp.GroupSize = rs.group.Size()
			cp.Schedule = "flat"
			cp.Checksummed = rs.group.Integrity().Enabled()
			cp.Wire = rs.wireOf(p.opts)
			if p.caps.Schedules {
				f := rs.resolved(p.opts, WireElemSize(cp.Wire, 16), 1)
				cp.Algo = collAlgoOf(f.algo)
				cp.Chunks = f.chunks
				cp.Overlap = f.overlap
				// Flat groups degenerate to single-level streaming even when
				// the node-aware schedule is forced.
				if f.algo == mpisim.AlgoNodeAware && rs.stats.nodes > 1 {
					cp.Schedule = fmt.Sprintf("2-level(%d nodes × ≤%d ranks)", rs.stats.nodes, rs.stats.maxPerNode)
				}
			}
		}
		out = append(out, cp)
	}
	return out
}
