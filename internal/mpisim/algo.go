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
	Dev    bool    // buffers are device-resident (GPU-aware path)
	Active bool    // moves off-diagonal bytes, as sender or receiver; inactive ranks leave a schedule immediately
	Factor float64 // fault degrade factor (0 or 1 = healthy)
	Start  float64 // earliest network start
}

// Exchange describes one all-to-all-v instance to a CollectiveAlgo: who
// sends how many bytes to whom, where the buffers live, each rank's fault
// degrade factor, and the earliest virtual time each rank's network activity
// may start (after staging and after its injection port frees up).
//
// A schedule must accumulate floating-point time over the flows in the order
// its dense formulation would meet them (a zero entry adds nothing there):
// the accumulation order is the virtual clock.
type Exchange struct {
	Size    int
	Members []Member // by exchange rank
	Nodes   int      // nodes occupied by the job
	Topo    *topo.System
	M       *machine.Model

	// pad is the round's largest block, self blocks included: what a padded
	// linear walk (MPI_Alltoall) sends every peer.
	pad int
	// ns is scratch a node-aware pricing may work in (nil: it makes its own).
	ns *nodeScratch
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

// factor returns rank r's degrade multiplier (≥ 1).
func (e *Exchange) factor(r int) float64 {
	if f := e.Members[r].Factor; f > 1 {
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

// CollectiveAlgo computes the virtual completion time of each rank's share
// of one all-to-all-v exchange, given per-rank earliest start times. The
// returned slice is indexed by exchange rank. Implementations model only the
// network schedule; staging, self-copies and fault bookkeeping are handled
// by the communicator wrapper.
type CollectiveAlgo interface {
	// Synchronized reports whether the schedule runs in lock-step rounds:
	// every rank's network activity then starts at the group's last entry
	// (like a barrier), whereas unsynchronized schedules start each rank as
	// soon as it arrives and let data dependencies — receivers waiting for
	// actual arrivals — carry the skew instead.
	Synchronized() bool
	Complete(ex *Exchange) []float64
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

func (a linearAlgo) Complete(ex *Exchange) []float64 {
	comp := make([]float64, ex.Size)
	for r := 0; r < ex.Size; r++ {
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
		comp[r] = ex.Members[r].Start + t*ex.factor(r)
	}
	return comp
}

// pairwiseAlgo: p-1 lock-step rounds; in round k rank r sends to (r+k) mod p
// and receives from (r-k) mod p. Every round lasts as long as its slowest
// pair, and all active ranks leave together — the synchronization is what
// keeps one clean, full-bandwidth flow per rank per round. Rounds in which
// nobody has traffic cost nothing (the schedule skips them).
type pairwiseAlgo struct{}

func (pairwiseAlgo) Synchronized() bool { return true }

func (pairwiseAlgo) Complete(ex *Exchange) []float64 {
	m := ex.M
	p := ex.Size
	comp := make([]float64, p)
	t := math.Inf(-1)
	any := false
	for r := 0; r < p; r++ {
		comp[r] = ex.Members[r].Start
		if ex.Members[r].Active {
			any = true
			if s := ex.Members[r].Start + ex.overhead(r); s > t {
				t = s
			}
		}
	}
	if !any || p == 1 {
		return comp
	}
	// Bucket the flows by round: round k lasts as long as the slowest pair at
	// cyclic distance k (a maximum, so the bucketing order is immaterial), and
	// the rounds add up in ascending k — empty ones add nothing.
	dur := make([]float64, p)
	for r := 0; r < p; r++ {
		for _, f := range ex.Members[r].Flows {
			k := (f.Dst - r + p) % p
			src, dw := ex.Members[r].World, ex.Members[f.Dst].World
			d := (m.CollInject + float64(f.Bytes)/ex.flowBW(src, dw) + ex.latency(src, dw)) * ex.factor(r)
			if d > dur[k] {
				dur[k] = d
			}
		}
	}
	for k := 1; k < p; k++ {
		t += dur[k]
	}
	for r := 0; r < p; r++ {
		if ex.Members[r].Active {
			comp[r] = t
		}
	}
	return comp
}

// ringAlgo: each rank streams its blocks in increasing cyclic distance. The
// call is set up once; each fragment pays only the injection cost. Intra-node
// (NVLink/xGMI) and inter-node (NIC) fragments drain through distinct
// hardware ports concurrently; wire latency is paid once, by the last
// fragment of each stream. A receiver completes when the last fragment
// addressed to it arrives.
type ringAlgo struct{}

func (ringAlgo) Synchronized() bool { return false }

func (ringAlgo) Complete(ex *Exchange) []float64 {
	m := ex.M
	p := ex.Size
	comp := make([]float64, p)
	arrival := make([]float64, p)
	for r := 0; r < p; r++ {
		comp[r] = ex.Members[r].Start
	}
	for r := 0; r < p; r++ {
		if !ex.Members[r].Active {
			continue
		}
		t0 := ex.Members[r].Start + ex.overhead(r)
		intra, inter := t0, t0
		f := ex.factor(r)
		sw := ex.Members[r].World
		row, i0 := ex.Members[r].Flows, ex.cyclicStart(r)
		for i := range row {
			fl := row[(i0+i)%len(row)]
			dw := ex.Members[fl.Dst].World
			var arr float64
			if ex.Topo.SameNode(sw, dw) {
				intra += (m.CollInject + float64(fl.Bytes)/m.IntraBW) * f
				arr = intra + m.IntraLatency
			} else {
				bw := ex.flowBW(sw, dw) / (1 + m.CollCongestion)
				inter += (m.CollInject + float64(fl.Bytes)/bw) * f
				arr = inter + m.InterLatency
			}
			if arr > arrival[fl.Dst] {
				arrival[fl.Dst] = arr
			}
		}
		done := math.Max(intra, inter)
		if done > comp[r] {
			comp[r] = done
		}
	}
	for r := 0; r < p; r++ {
		if arrival[r] > comp[r] {
			comp[r] = arrival[r]
		}
	}
	return comp
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

func (bruckAlgo) Complete(ex *Exchange) []float64 {
	m := ex.M
	p := ex.Size
	comp := make([]float64, p)
	t := math.Inf(-1)
	anyActive := false
	total := 0
	fmax := 1.0
	for r := 0; r < p; r++ {
		comp[r] = ex.Members[r].Start
		if !ex.Members[r].Active {
			continue
		}
		anyActive = true
		if s := ex.Members[r].Start + ex.overhead(r); s > t {
			t = s
		}
		if f := ex.factor(r); f > fmax {
			fmax = f
		}
		for _, fl := range ex.Members[r].Flows {
			total += fl.Bytes
		}
	}
	if !anyActive || p == 1 {
		return comp
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
		t += (m.CollInject + lat + s/bw + 2*s/m.GPU.MemBW) * fmax
	}
	for r := 0; r < p; r++ {
		if ex.Members[r].Active {
			comp[r] = t
		}
	}
	return comp
}

// bruckForwarded counts the blocks a rank forwards in round k of a p-rank
// Bruck exchange: the cyclic distances d in [1, p) with bit k set. Every full
// period of 2^(k+1) distances below p holds 2^k of them; the partial period
// at the top holds whatever reaches past its first 2^k.
func bruckForwarded(p, k int) int {
	half := 1 << k
	return p>>(k+1)<<k + max(0, p&(2*half-1)-half)
}
