package mpisim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/topo"
)

// Algo selects the schedule an all-to-all-v exchange uses. The numerics are
// identical for every algorithm — the same blocks reach the same ranks — but
// the virtual-time cost differs, because each schedule stresses a different
// part of the machine: per-message software overhead, wire latency, or link
// bandwidth. This mirrors the algorithm-selection study of collective-
// optimized FFTs: no single all-to-all wins every (rank count, message size)
// regime.
type Algo int

const (
	// AlgoLinear is the legacy schedule: each rank posts one message per
	// destination, paying the full per-message software overhead and wire
	// latency for every block. It is the reference the other schedules are
	// validated against.
	AlgoLinear Algo = iota
	// AlgoPairwise is the synchronized pairwise exchange: p-1 rounds, in
	// round k rank r trades blocks with ranks r±k. One clean flow per rank
	// per round drives the full per-flow bandwidth — the large-message
	// algorithm of classic MPI implementations.
	AlgoPairwise
	// AlgoRing streams blocks to destinations in increasing cyclic distance
	// without round barriers: the call is set up once, fragments are queued
	// on the progress engine for a fraction of a full posting, and wire
	// latency is paid once instead of per destination. Unsynchronized
	// streaming pays a small fabric-congestion bandwidth penalty inter-node.
	AlgoRing
	// AlgoBruck is the log-step store-and-forward schedule: ⌈log2 p⌉
	// synchronized rounds moving aggregated blocks, trading extra moved
	// bytes (and local rotation copies) for an exponentially smaller round
	// count — the small-message algorithm.
	AlgoBruck
	// AlgoNodeAware is the hierarchical two-level schedule: ranks gather
	// their off-node blocks to a per-node leader over NVLink (packed per
	// destination node), leaders run a pairwise exchange over the *nodes* —
	// n−1 rounds instead of p−1, each flow driving the node's full
	// aggregated injection share — and the received aggregates scatter to
	// their final ranks over NVLink, overlapping later rounds. Intra-node
	// blocks never touch the NIC. This is the leader-based pattern of
	// multi-node NCCL FFTs, and the reason it exists is the paper's central
	// bandwidth gap: NVLink flows are ~3× cheaper than injection shares, so
	// concentrating the wire traffic into one aggregated flow per node pair
	// trades cheap intra-node hops for expensive inter-node message count.
	AlgoNodeAware
)

func (a Algo) String() string {
	switch a {
	case AlgoLinear:
		return "linear"
	case AlgoPairwise:
		return "pairwise"
	case AlgoRing:
		return "ring"
	case AlgoBruck:
		return "bruck"
	case AlgoNodeAware:
		return "node-aware"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// Algos lists the selectable schedules.
func Algos() []Algo {
	return []Algo{AlgoLinear, AlgoPairwise, AlgoRing, AlgoBruck, AlgoNodeAware}
}

// Flow is one entry of a sparse row of the exchange matrix: Bytes > 0 of
// payload addressed to exchange rank Dst.
type Flow struct {
	Dst, Bytes int
}

// Member is one rank's share of an Exchange.
type Member struct {
	World int // world rank
	// Flows lists the rank's non-empty off-diagonal blocks in ascending
	// destination order — its sparse row of the exchange matrix. The diagonal
	// (self) is handled by the caller.
	Flows  []Flow
	Dev    bool // buffers are device-resident (GPU-aware path)
	Active bool // moves off-diagonal bytes, as sender or receiver; inactive ranks leave a schedule immediately
}

// Exchange describes one all-to-all-v instance to a CollectiveAlgo: who
// sends how many bytes to whom and where the buffers live. That is the static
// half of a call, what a persistent Pattern fixes; a schedule compiles it once
// into a program and runs the program on each call's per-rank half — the
// earliest virtual time each rank's network activity may start (after
// staging and after its injection port frees up) and its fault degrade
// factor.
//
// A schedule must accumulate floating-point time over the flows in the order
// its dense formulation would meet them (a zero entry adds nothing there):
// the accumulation order is the virtual clock.
type Exchange struct {
	Size    int
	Members []Member // by exchange rank
	Topo    *topo.System
	M       *machine.Model

	// pad is the round's largest block, self blocks included: what a padded
	// linear walk (MPI_Alltoall) sends every peer.
	pad int
}

// cyclicStart returns where rank r's flows start when visited in increasing
// cyclic distance (dst − r) mod p — the order the streaming schedules send
// in: the first flow to a destination above r, wrapping around to those below.
func (e *Exchange) cyclicStart(r int) int {
	row := e.Members[r].Flows
	return sort.Search(len(row), func(i int) bool { return row[i].Dst > r })
}

// overhead is the one-time collective call setup cost on rank r.
func (e *Exchange) overhead(r int) float64 {
	if e.Members[r].Dev {
		return e.M.DeviceOverheadColl
	}
	return e.M.HostOverheadColl
}

// rankSetup is what a program keeps per rank of every exchange: the call's
// setup overhead (launch) and whether the rank takes part (active), and
// whether any does.
type rankSetup struct {
	launch    []float64
	active    []bool
	anyActive bool
}

func (e *Exchange) rankSetup() rankSetup {
	rs := rankSetup{launch: make([]float64, e.Size), active: make([]bool, e.Size)}
	for r, mb := range e.Members {
		rs.launch[r], rs.active[r] = e.overhead(r), mb.Active
		rs.anyActive = rs.anyActive || mb.Active
	}
	return rs
}

// flows counts the exchange's flows.
func (e *Exchange) flows() int {
	n := 0
	for _, mb := range e.Members {
		n += len(mb.Flows)
	}
	return n
}

// cyclic splits a row at first into the two runs a walk in increasing cyclic
// distance visits in turn.
func cyclic(row []Flow, first int32) [2][]Flow {
	return [2][]Flow{row[first:], row[:first]}
}

// degrade returns a rank's degrade multiplier (≥ 1) from its fault factor
// (0 or 1 = healthy).
func degrade(f float64) float64 {
	if f > 1 {
		return f
	}
	return 1
}

// flowBW is the per-flow bandwidth a *scheduled* transfer sees between two
// world ranks. Scheduled collectives move data in permutation rounds (every
// link carries at most one flow at a time), which is exactly the traffic
// pattern the fabric's adaptive routing handles without hotspots — so unlike
// the naive linear path (topo.System.NaiveFlowBW), they do not pay the
// saturation/adaptive-routing losses. This is the classic reason MPI
// libraries schedule their all-to-alls at all.
func (e *Exchange) flowBW(srcW, dstW int) float64 {
	return e.Topo.SchedFlowBW(srcW, dstW)
}

// latency is the wire latency between two world ranks.
func (e *Exchange) latency(srcW, dstW int) float64 {
	return e.Topo.Latency(srcW, dstW)
}

// spansNodes reports whether any two exchange ranks live on different nodes.
func (e *Exchange) spansNodes() bool {
	for _, m := range e.Members[1:] {
		if !e.Topo.SameNode(e.Members[0].World, m.World) {
			return true
		}
	}
	return false
}

// CollectiveAlgo is one all-to-all-v schedule: it computes the virtual
// completion time of each rank's share of an exchange, in two steps. compile
// reads the static half of an Exchange into a program — everything that
// depends only on who sends how much to whom, where — and the program's run
// takes each call's per-rank starts and degrade factors. A caller that repeats
// an exchange (a persistent Pattern) compiles once and runs on every call, as
// MPI_Alltoallv_init plans once for every MPI_Start. Implementations model
// only the network schedule; staging, self-copies and fault bookkeeping are
// handled by the communicator wrapper.
type CollectiveAlgo interface {
	// Synchronized reports whether the schedule runs in lock-step rounds:
	// every rank's network activity then starts at the group's last entry
	// (like a barrier), whereas unsynchronized schedules start each rank as
	// soon as it arrives and let data dependencies — receivers waiting for
	// actual arrivals — carry the skew instead.
	Synchronized() bool
	compile(ex *Exchange) program
}

// program is a schedule compiled for one exchange. run writes every exchange
// rank's completion time into comp, given its earliest network start and its
// degrade factor (≥ 1); tmp is zeroed scratch as long as comp. Each run
// performs exactly the floating-point operations of the direct schedule, in
// its order: every term compiled in is the expression the schedule evaluated
// on each call, evaluated once. A program is read-only, so runs may share it.
type program interface {
	run(start, factor, comp, tmp []float64)
}

// linearAlgo is the vendor per-destination loop of MPI_Alltoallv: each rank
// posts one message per destination its row names, in ascending order, and
// pays the collective's per-message overhead, the wire latency and the
// saturated per-flow bandwidth (topo.System.NaiveFlowBW: unscheduled traffic
// is exactly what the fabric's adaptive routing degrades under) for each.
// Padded, it is MPI_Alltoall's loop: every peer, named or not, at the round's
// largest block (Exchange.pad) — the padding cost the paper observes on
// brick↔pencil reshapes (Figs. 2 and 6).
type linearAlgo struct{ padded bool }

func (linearAlgo) Synchronized() bool { return true }

// linearProgram holds each rank's walk, summed: the walk is the same on every
// call, and its degrade factor scales the whole of it.
type linearProgram struct{ walk []float64 }

func (a linearAlgo) compile(ex *Exchange) program {
	walk := make([]float64, ex.Size)
	for r := range walk {
		srcW := ex.Members[r].World
		oh := ex.overhead(r)
		t := 0.0
		if a.padded {
			for dst := range ex.Members {
				if dst != r {
					dstW := ex.Members[dst].World
					t += oh + float64(ex.pad)/ex.Topo.NaiveFlowBW(srcW, dstW) + ex.latency(srcW, dstW)
				}
			}
		} else {
			for _, f := range ex.Members[r].Flows {
				dstW := ex.Members[f.Dst].World
				t += oh + float64(f.Bytes)/ex.Topo.NaiveFlowBW(srcW, dstW) + ex.latency(srcW, dstW)
			}
		}
		walk[r] = t
	}
	return &linearProgram{walk: walk}
}

func (p *linearProgram) run(start, factor, comp, _ []float64) {
	for r, t := range p.walk {
		comp[r] = start[r] + t*factor[r]
	}
}

// pairwiseAlgo: p-1 lock-step rounds; in round k rank r sends to (r+k) mod p
// and receives from (r-k) mod p. Every round lasts as long as its slowest
// pair, and all active ranks leave together — the synchronization is what
// keeps one clean, full-bandwidth flow per rank per round. Rounds in which
// nobody has traffic cost nothing (the schedule skips them).
type pairwiseAlgo struct{}

func (pairwiseAlgo) Synchronized() bool { return true }

// pairwiseProgram holds each flow's transfer time before its sender's
// degrade factor, in row order (dur), with the rows naming the rounds.
type pairwiseProgram struct {
	rankSetup
	rows [][]Flow
	dur  []float64
}

func (pairwiseAlgo) compile(ex *Exchange) program {
	m := ex.M
	p := &pairwiseProgram{rankSetup: ex.rankSetup(), rows: make([][]Flow, ex.Size), dur: make([]float64, 0, ex.flows())}
	for r, mb := range ex.Members {
		p.rows[r] = mb.Flows
		for _, f := range mb.Flows {
			src, dw := mb.World, ex.Members[f.Dst].World
			p.dur = append(p.dur, m.CollInject+float64(f.Bytes)/ex.flowBW(src, dw)+ex.latency(src, dw))
		}
	}
	return p
}

func (p *pairwiseProgram) run(start, factor, comp, dur []float64) {
	n := len(p.rows)
	copy(comp, start)
	if !p.anyActive || n == 1 {
		return
	}
	t := math.Inf(-1)
	for r := range n {
		if p.active[r] {
			if s := start[r] + p.launch[r]; s > t {
				t = s
			}
		}
	}
	// Bucket the flows by round: round k lasts as long as the slowest pair at
	// cyclic distance k (a maximum, so the bucketing order is immaterial), and
	// the rounds add up in ascending k — empty ones add nothing.
	i := 0
	for r, row := range p.rows {
		for _, f := range row {
			k := f.Dst - r
			if k < 0 {
				k += n
			}
			if d := p.dur[i] * factor[r]; d > dur[k] {
				dur[k] = d
			}
			i++
		}
	}
	for k := 1; k < n; k++ {
		t += dur[k]
	}
	for r := range n {
		if p.active[r] {
			comp[r] = t
		}
	}
}

// ringAlgo: each rank streams its blocks in increasing cyclic distance. The
// call is set up once; each fragment pays only the injection cost. Intra-node
// (NVLink/xGMI) and inter-node (NIC) fragments drain through distinct
// hardware ports concurrently; wire latency is paid once, by the last
// fragment of each stream. A receiver completes when the last fragment
// addressed to it arrives.
type ringAlgo struct{}

func (ringAlgo) Synchronized() bool { return false }

// ringProgram holds each rank's row, where its cyclic walk starts (first)
// and, in walk order, each fragment's injection time before the sender's
// degrade factor (dur); a fragment is intra-node when its ends share a node.
type ringProgram struct {
	rankSetup
	m     *machine.Model
	rows  [][]Flow
	first []int32
	node  []int32 // per rank: its node
	dur   []float64
}

func (ringAlgo) compile(ex *Exchange) program {
	m := ex.M
	p := &ringProgram{rankSetup: ex.rankSetup(), m: m, rows: make([][]Flow, ex.Size), first: make([]int32, ex.Size),
		node: make([]int32, ex.Size), dur: make([]float64, 0, ex.flows())}
	for r, mb := range ex.Members {
		p.rows[r], p.first[r], p.node[r] = mb.Flows, int32(ex.cyclicStart(r)), int32(ex.Topo.Node(mb.World))
	}
	for r, row := range p.rows {
		sw := ex.Members[r].World
		for _, part := range cyclic(row, p.first[r]) {
			for _, fl := range part {
				dw := ex.Members[fl.Dst].World
				if ex.Topo.SameNode(sw, dw) {
					p.dur = append(p.dur, m.CollInject+float64(fl.Bytes)/m.IntraBW)
				} else {
					bw := ex.flowBW(sw, dw) / (1 + m.CollCongestion)
					p.dur = append(p.dur, m.CollInject+float64(fl.Bytes)/bw)
				}
			}
		}
	}
	return p
}

func (p *ringProgram) run(start, factor, comp, arrival []float64) {
	m := p.m
	copy(comp, start)
	i := 0
	for r, row := range p.rows {
		if !p.active[r] {
			i += len(row)
			continue
		}
		t0 := start[r] + p.launch[r]
		intra, inter := t0, t0
		f := factor[r]
		node := p.node[r]
		for _, part := range cyclic(row, p.first[r]) {
			for _, fl := range part {
				var arr float64
				if p.node[fl.Dst] == node {
					intra += p.dur[i] * f
					arr = intra + m.IntraLatency
				} else {
					inter += p.dur[i] * f
					arr = inter + m.InterLatency
				}
				i++
				if arr > arrival[fl.Dst] {
					arrival[fl.Dst] = arr
				}
			}
		}
		done := math.Max(intra, inter)
		if done > comp[r] {
			comp[r] = done
		}
	}
	for r, arr := range arrival {
		if arr > comp[r] {
			comp[r] = arr
		}
	}
}

// bruckAlgo: ⌈log2 p⌉ synchronized store-and-forward rounds. In round k a
// rank forwards every block whose remaining cyclic distance has bit k set —
// about half the traffic it routes — so small-message exchanges trade
// bandwidth (each byte moves ~log2(p)/2 times, plus local rotation copies)
// for an exponentially smaller latency/overhead bill. Costs use the
// uniform-equivalent block size; non-uniform exchanges are routed exactly
// the same way, just accounted at the average.
type bruckAlgo struct{}

func (bruckAlgo) Synchronized() bool { return true }

// bruckProgram holds each round's duration before the group's worst degrade
// factor.
type bruckProgram struct {
	rankSetup
	rounds []float64
}

func (bruckAlgo) compile(ex *Exchange) program {
	m := ex.M
	p := ex.Size
	prog := &bruckProgram{rankSetup: ex.rankSetup()}
	if !prog.anyActive || p == 1 {
		return prog
	}
	total := 0
	for _, mb := range ex.Members {
		for _, fl := range mb.Flows {
			total += fl.Bytes
		}
	}
	mbar := float64(total) / float64(p*(p-1))
	// Worst link present in the group gates each synchronized round: the
	// scheduled injection share of the group's most-crowded node.
	bw, lat := m.IntraBW, m.IntraLatency
	if ex.spansNodes() {
		seen := make(map[int]bool, 8)
		for _, mb := range ex.Members {
			n := ex.Topo.Node(mb.World)
			if seen[n] {
				continue
			}
			seen[n] = true
			if share := ex.Topo.InjShare(n); share < bw {
				bw = share
			}
		}
		if m.InterLatency > lat {
			lat = m.InterLatency
		}
	}
	steps := int(math.Ceil(math.Log2(float64(p))))
	for k := 0; k < steps; k++ {
		s := mbar * float64(bruckForwarded(p, k))
		prog.rounds = append(prog.rounds, m.CollInject+lat+s/bw+2*s/m.GPU.MemBW)
	}
	return prog
}

func (p *bruckProgram) run(start, factor, comp, _ []float64) {
	copy(comp, start)
	if !p.anyActive || len(comp) == 1 {
		return
	}
	t := math.Inf(-1)
	fmax := 1.0
	for r, active := range p.active {
		if !active {
			continue
		}
		if s := start[r] + p.launch[r]; s > t {
			t = s
		}
		if f := factor[r]; f > fmax {
			fmax = f
		}
	}
	for _, d := range p.rounds {
		t += d * fmax
	}
	for r, active := range p.active {
		if active {
			comp[r] = t
		}
	}
}

// bruckForwarded counts the blocks a rank forwards in round k of a p-rank
// Bruck exchange: the cyclic distances d in [1, p) with bit k set. Every full
// period of 2^(k+1) distances below p holds 2^k of them; the partial period
// at the top holds whatever reaches past its first 2^k.
func bruckForwarded(p, k int) int {
	half := 1 << k
	return p>>(k+1)<<k + max(0, p&(2*half-1)-half)
}
