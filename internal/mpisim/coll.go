package mpisim

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// rendezvous is the synchronization point of collectives: every member
// deposits an input and a clock snapshot; the last arrival runs the timing
// computation over all inputs, retires the round and wakes every other member
// once, through the member's wake slot (rankState.slot); everyone leaves with
// its own output. A retired round is the members' alone, so the
// communicator's next collective opens a new round at once.
type rendezvous struct {
	mu sync.Mutex
	// ranks are the members' world ranks (the communicator's worldRanks):
	// they name the wake slots.
	ranks []int
	// round is the round taking deposits, drawn from roundPool at its first
	// arrival and retired (nil) when its last arrival has computed it.
	round *round
	// progs holds the schedules this communicator's all-to-alls were
	// compiled into, one per (pattern, schedule, buffer location), touched
	// only by a round's leader under mu (see pricing.program).
	progs map[progKey]program
	// transposes counts the all-to-all rounds whose deposits carried blocks to
	// copy into receive lists (see transpose).
	transposes int
}

// round is the working set of one rendezvous round: the members' inputs and
// outputs, one per member. It is pooled rather than kept on the rendezvous —
// a communicator that sits idle pins nothing, and the collector empties the
// pool like any cache — and it holds no pointer into a member's lists or
// payloads once it is back in the pool.
type round struct {
	ins     []collIn
	outs    []collOut
	arrived int // under rendezvous.mu
	// leaving counts the members yet to pick up their output; the one that
	// takes it to zero gives the round back to the pool.
	leaving atomic.Int32
}

var roundPool = sync.Pool{New: func() any { return new(round) }}

// resize returns s with length n, reusing its backing array when it is large
// enough. The pooled slices it serves are cleared over their length when given
// back, so what it returns is zero (except pricing.counts, which is reused
// within a round and cleared where it is drawn).
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func getRound(size int) *round {
	rd := roundPool.Get().(*round)
	rd.ins, rd.outs = resize(rd.ins, size), resize(rd.outs, size)
	rd.arrived = 0
	return rd
}

// release clears every pointer the round holds — the members' send and
// receive lists, split results — and returns it to the pool.
func (rd *round) release() {
	clear(rd.ins)
	clear(rd.outs)
	roundPool.Put(rd)
}

type collIn struct {
	clock float64
	// pat describes the rank's all-to-all (every member passes the same one;
	// nil: the leader derives it from the blocks). blocks is the rank's sparse
	// send list (non-empty blocks, ascending destination), nil when the
	// exchange carries no payload; dev says its send buffer is
	// device-resident. recv is the receive list the rank lends the round,
	// emptied: the leader appends the blocks addressed to the rank to it (see
	// transpose).
	pat          *Pattern
	blocks, recv []Block
	dev          bool
	val          float64
	key          int // Split: the caller's ordering key (its color travels in val)
	// port snapshots the rank's injection-port busy-until time; the
	// scheduled all-to-all algorithms gate their network start on it so
	// back-to-back chunked exchanges serialize honestly on the wire.
	port float64
	// Fault-injection effects of the contributing rank for this exchange:
	// factor scales its communication time (degraded links), lost marks its
	// outgoing blocks as dropped in transit.
	factor float64
	lost   bool
}

type collOut struct {
	clock float64
	// blocks is the rank's sparse all-to-all receive list, ascending source:
	// copies of the senders' deposited blocks (collIn.blocks), in the list the
	// rank lent (collIn.recv) or a larger one.
	blocks []Block
	val    float64
	// port is the new injection-port busy-until time of the receiving rank
	// (scheduled all-to-all algorithms only; zero otherwise).
	port      float64
	splitCore *commCore
	splitRank int
}

// exchange runs one collective round. compute is executed exactly once, by
// the last arriving rank: ins holds every member's input, and compute fills
// outs (zeroed, one per member). The rendezvous keeps no reference to a round
// once it is computed, and the round goes back to roundPool, cleared, when the
// last member has picked up its output — the communicator's next collective
// may be far off, and the inputs reach every member's lists.
//
// A member deposits under rv.mu and blocks on its rank's wake slot; the
// leader's wake send happens-before the receive, so the member reads its
// output without the lock. The slot also takes World.abort's tokens, and the
// protocol keeps these rules:
//  1. entering a failed world's rendezvous panics;
//  2. a member woken in a failed world whose round was not computed panics;
//  3. a member whose round was computed leaves with its output, even if the
//     world failed since (rv.round no longer names the round);
//  4. the leader's wake never blocks: abort runs once per failing rank, so a
//     slot can hold a token of a rank that has already left;
//  5. in a healthy world each member takes exactly one wake per round, and
//     the round goes back to the pool exactly once.
func (rv *rendezvous) exchange(w *World, rank int, in collIn, compute func(ins []collIn, outs []collOut)) collOut {
	rd, led := rv.arrive(w, rank, in, compute)
	if led {
		for r, wr := range rv.ranks {
			if r != rank {
				w.states[wr].wake()
			}
		}
	} else {
		<-w.states[rv.ranks[rank]].slot
		if w.failed.Load() && !rv.retired(rd) {
			panic(worldAborted{})
		}
	}
	out := rd.outs[rank]
	if rd.leaving.Add(-1) == 0 {
		rd.release()
	}
	return out
}

// arrive deposits in under rv.mu. The last arrival computes the round and
// retires it before the lock is released, and reports led. The unlock is
// deferred so that a compute that panics leaves rv.mu free for the members
// the abort wakes.
func (rv *rendezvous) arrive(w *World, rank int, in collIn, compute func(ins []collIn, outs []collOut)) (rd *round, led bool) {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	// A failed world never completes another rendezvous — and a rank that
	// aborted mid-wait left its arrival registered, so re-entering would
	// corrupt the count. Fail fast instead.
	if w.failed.Load() {
		panic(worldAborted{})
	}
	if rv.round == nil {
		rv.round = getRound(len(rv.ranks))
	}
	rd = rv.round
	rd.ins[rank] = in
	rd.arrived++
	if rd.arrived < len(rv.ranks) {
		return rd, false
	}
	compute(rd.ins, rd.outs)
	rd.leaving.Store(int32(len(rv.ranks)))
	rv.round = nil
	return rd, true
}

// retired reports whether rd has been computed.
func (rv *rendezvous) retired(rd *round) bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.round != rd
}

// Barrier synchronizes all ranks of the communicator; clocks advance to the
// common release time (max entry + a logarithmic software cost).
func (c *Comm) Barrier() {
	st := c.state()
	start := st.clock
	c.faultEnter("MPI_Barrier")
	m := c.Model()
	out := c.core.rv.exchange(c.core.world, c.rank, collIn{clock: st.clock}, func(ins []collIn, outs []collOut) {
		t0 := maxClock(ins)
		steps := math.Ceil(math.Log2(float64(len(ins))))
		if len(ins) == 1 {
			steps = 0
		}
		t := t0 + steps*(m.HostOverheadColl+m.InterLatency)
		for i := range outs {
			outs[i].clock = t
		}
	})
	st.clock = c.collClock("MPI_Barrier", start, out.clock)
	c.record("MPI_Barrier", start, st.clock, 0)
}

func maxClock(ins []collIn) float64 {
	t := math.Inf(-1)
	for _, in := range ins {
		if in.clock > t {
			t = in.clock
		}
	}
	return t
}

// ReduceOp selects the Allreduce combiner.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// Allreduce combines one float64 per rank and returns the result everywhere
// (recursive-doubling timing over 8-byte payloads).
func (c *Comm) Allreduce(v float64, op ReduceOp) float64 {
	st := c.state()
	start := st.clock
	w := c.core.world
	m := c.Model()
	size := c.Size()
	c.faultEnter("MPI_Allreduce")
	out := c.core.rv.exchange(w, c.rank, collIn{clock: st.clock, val: v}, func(ins []collIn, outs []collOut) {
		t0 := maxClock(ins)
		acc := ins[0].val
		for _, in := range ins[1:] {
			switch op {
			case OpSum:
				acc += in.val
			case OpMax:
				acc = math.Max(acc, in.val)
			case OpMin:
				acc = math.Min(acc, in.val)
			}
		}
		steps := math.Ceil(math.Log2(float64(size)))
		t := t0 + steps*(m.HostOverheadColl+m.InterLatency+8/m.NodeInjectionBW)
		for i := range outs {
			outs[i] = collOut{clock: t, val: acc}
		}
	})
	st.clock = c.collClock("MPI_Allreduce", start, out.clock)
	c.record("MPI_Allreduce", start, st.clock, 8)
	return out.val
}

// Split partitions the communicator like MPI_Comm_split: ranks with the same
// color form a new communicator, ordered by (key, rank). Ranks passing a
// negative color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct {
		color, key, rank int
	}
	st := c.state()
	w := c.core.world
	in := collIn{clock: st.clock, val: float64(color), key: key}
	out := c.core.rv.exchange(w, c.rank, in, func(ins []collIn, outs []collOut) {
		t0 := maxClock(ins)
		// Group by color.
		groups := map[int][]entry{}
		for r, inp := range ins {
			col := int(inp.val)
			if col < 0 {
				continue
			}
			groups[col] = append(groups[col], entry{color: col, key: inp.key, rank: r})
		}
		cores := map[int]*commCore{}
		newRank := make([]int, len(ins))
		for col, es := range groups {
			sort.Slice(es, func(i, j int) bool {
				if es[i].key != es[j].key {
					return es[i].key < es[j].key
				}
				return es[i].rank < es[j].rank
			})
			worldRanks := make([]int, len(es))
			for i, e := range es {
				worldRanks[i] = c.WorldRank(e.rank)
				newRank[e.rank] = i
			}
			cores[col] = w.newComm(worldRanks)
		}
		for r, inp := range ins {
			col := int(inp.val)
			outs[r].clock = t0 + 2*c.Model().HostOverheadColl
			if col >= 0 {
				outs[r].splitCore = cores[col]
				outs[r].splitRank = newRank[r]
			}
		}
	})
	st.clock = out.clock
	if out.splitCore == nil {
		return nil
	}
	return &Comm{core: out.splitCore, rank: out.splitRank}
}
