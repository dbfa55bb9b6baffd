package model

import (
	"fmt"
	"math"
)

// Closed-form cost models of the all-to-all schedules implemented by
// internal/mpisim (linear, pairwise exchange, ring streaming, Bruck
// log-step), mirroring the simulator's accounting so the heuristic selector
// and the tuning predictor reason about the same regimes the virtual clock
// produces. The regime structure follows the collective-optimized-FFT
// analysis: latency/overhead-bound exchanges (tiny blocks) want log-step
// schedules, bandwidth-bound exchanges with many destinations want streamed
// schedules, and very large uniform blocks want synchronized pairwise
// rounds that keep one clean flow per rank.

// AlltoallAlgo names a schedule in the closed-form model. Values parallel
// mpisim.Algo but stay independent so this package keeps zero simulator
// dependencies.
type AlltoallAlgo int

const (
	AlltoallLinear AlltoallAlgo = iota
	AlltoallPairwise
	AlltoallRing
	AlltoallBruck
	AlltoallNodeAware
)

func (a AlltoallAlgo) String() string {
	switch a {
	case AlltoallLinear:
		return "linear"
	case AlltoallPairwise:
		return "pairwise"
	case AlltoallRing:
		return "ring"
	case AlltoallBruck:
		return "bruck"
	case AlltoallNodeAware:
		return "node-aware"
	}
	return fmt.Sprintf("alltoall(%d)", int(a))
}

// CollParams carries the machine quantities the closed forms need. Build it
// from a machine model with the caller's knowledge of group placement.
type CollParams struct {
	Overhead   float64 // per-call software setup (collective path)
	Inject     float64 // per-fragment posting cost of scheduled collectives
	Congestion float64 // fractional inter-node bandwidth loss of unsynchronized streams
	// InterBW is the per-flow inter-node bandwidth a scheduled permutation
	// round sees (the node injection share, unsaturated). NaiveInterBW is
	// what the unscheduled linear posting loop sees — injection share
	// degraded by the fabric saturation factor; zero means same as InterBW.
	InterBW      float64
	NaiveInterBW float64
	IntraBW      float64 // per-flow intra-node bandwidth
	InterLat     float64 // inter-node wire latency
	IntraLat     float64 // intra-node latency
	MemBW        float64 // device memory bandwidth (Bruck rotation copies)
	// LeaderBW is the aggregated inter-node bandwidth one leader flow drives
	// in the hierarchical schedule (the group's summed injection share,
	// capped by any fabric uplink). Zero disables the node-aware form.
	LeaderBW float64
	// Pipeline is the fragment pipeline depth of hierarchical collectives
	// (machine.Model.CollPipeline); values below 1 mean store-and-forward.
	Pipeline float64
	// ChecksumBW and ChecksumOverhead price the integrity layer's transport
	// envelopes: one checksum pass over the sent bytes at pack time and one
	// verify pass over the received bytes at delivery. Zero ChecksumBW
	// disables the term — the closed forms then describe a checksum-free
	// exchange.
	ChecksumBW       float64
	ChecksumOverhead float64
}

// ChecksumTime is the integrity layer's per-exchange envelope cost: a
// checksum compute pass over sendBytes plus a verify pass over recvBytes.
// The term is schedule-independent — every all-to-all variant moves the same
// payload — so AlltoallTime adds it on top of each closed form rather than
// folding it in, and algorithm selection is unaffected.
func ChecksumTime(sendBytes, recvBytes float64, cp CollParams) float64 {
	if cp.ChecksumBW <= 0 || sendBytes+recvBytes <= 0 {
		return 0
	}
	return 2*cp.ChecksumOverhead + (sendBytes+recvBytes)/cp.ChecksumBW
}

// AlltoallShape describes one exchange as the model sees it: group size P,
// average destinations per active rank Dst, the number of distinct cyclic
// offsets carrying traffic Rounds (the pairwise round count — equal to P-1
// for dense exchanges, much smaller for sparse brick↔pencil reshapes),
// average nonzero block bytes, and the fraction of destinations that cross
// a node boundary.
type AlltoallShape struct {
	P         int
	Dst       int
	Rounds    int
	Bytes     float64
	InterFrac float64
	// Nodes and PerNode describe the group's placement for the hierarchical
	// schedule: the number of distinct nodes the group spans and the largest
	// per-node rank count. Zero Nodes means placement unknown (node-aware
	// falls back to the ring form).
	Nodes   int
	PerNode int
}

// norm fills defaults so partially-specified shapes behave sensibly.
func (s AlltoallShape) norm() AlltoallShape {
	if s.P < 1 {
		s.P = 1
	}
	if s.Dst <= 0 {
		s.Dst = s.P - 1
	}
	if s.Rounds <= 0 {
		s.Rounds = s.Dst
	}
	if s.InterFrac < 0 {
		s.InterFrac = 0
	} else if s.InterFrac > 1 {
		s.InterFrac = 1
	}
	if s.Nodes > 0 && s.PerNode <= 0 {
		s.PerNode = (s.P + s.Nodes - 1) / s.Nodes
	}
	return s
}

// mixLat is the expected per-message latency over the inter/intra mix.
func (s AlltoallShape) mixLat(cp CollParams) float64 {
	return s.InterFrac*cp.InterLat + (1-s.InterFrac)*cp.IntraLat
}

// maxLat is the worst latency present in the mix.
func (s AlltoallShape) maxLat(cp CollParams) float64 {
	if s.InterFrac > 0 && cp.InterLat > cp.IntraLat {
		return cp.InterLat
	}
	if s.InterFrac >= 1 {
		return cp.InterLat
	}
	return cp.IntraLat
}

// LinearAlltoallTime is the per-destination posting loop: every block pays
// the full call overhead, its serialized port time, and its wire latency.
func LinearAlltoallTime(s AlltoallShape, cp CollParams) float64 {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 {
		return 0
	}
	bw := cp.NaiveInterBW
	if bw == 0 {
		bw = cp.InterBW
	}
	per := cp.Overhead + s.Bytes*(s.InterFrac/bw+(1-s.InterFrac)/cp.IntraBW) + s.mixLat(cp)
	return float64(s.Dst) * per
}

// PairwiseAlltoallTime is the synchronized pairwise exchange: one call
// setup, then Rounds lock-step rounds each gated by the slowest pair — in a
// mixed intra/inter group that is an inter-node pair.
func PairwiseAlltoallTime(s AlltoallShape, cp CollParams) float64 {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 {
		return 0
	}
	worst := s.Bytes/cp.IntraBW + cp.IntraLat
	if s.InterFrac > 0 {
		if t := s.Bytes/cp.InterBW + cp.InterLat; t > worst {
			worst = t
		}
	}
	return cp.Overhead + float64(s.Rounds)*(cp.Inject+worst)
}

// RingAlltoallTime is the streamed schedule: one call setup, one injection
// cost per fragment, intra- and inter-node streams draining through their
// distinct ports concurrently (the max term), congestion on the
// unsynchronized inter-node flows, and latency paid once.
func RingAlltoallTime(s AlltoallShape, cp CollParams) float64 {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 {
		return 0
	}
	d := float64(s.Dst)
	inter := s.InterFrac * d * s.Bytes * (1 + cp.Congestion) / cp.InterBW
	intra := (1 - s.InterFrac) * d * s.Bytes / cp.IntraBW
	return cp.Overhead + d*cp.Inject + math.Max(inter, intra) + s.maxLat(cp)
}

// BruckAlltoallTime is the log-step store-and-forward schedule: ⌈log2 P⌉
// synchronized rounds, each moving the uniform-equivalent aggregate (about
// half the routed traffic) over the worst link present, plus two local
// rotation copies of the same bytes.
func BruckAlltoallTime(s AlltoallShape, cp CollParams) float64 {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 {
		return 0
	}
	// Uniform-equivalent block over the full group.
	mbar := float64(s.Dst) * s.Bytes / float64(s.P-1)
	bw := cp.IntraBW
	if s.InterFrac > 0 {
		bw = cp.InterBW
	}
	lat := s.maxLat(cp)
	t := cp.Overhead
	steps := int(math.Ceil(math.Log2(float64(s.P))))
	for k := 0; k < steps; k++ {
		agg := mbar * float64(bruckForwarded(s.P, k))
		t += cp.Inject + lat + agg/bw + 2*agg/cp.MemBW
	}
	return t
}

// bruckForwarded counts the blocks a rank forwards in round k of a p-rank
// Bruck exchange: the cyclic distances d in [1, p) with bit k set. Every full
// period of 2^(k+1) distances below p holds 2^k of them; the partial period
// at the top holds whatever reaches past its first 2^k.
func bruckForwarded(p, k int) int {
	half := 1 << k
	return p>>(k+1)<<k + max(0, p&(2*half-1)-half)
}

// NodeAwareAlltoallTime is the hierarchical two-level schedule: per-node
// gather over NVLink (pipelined under the wire, one fragment exposed),
// Nodes−1 lock-step leader rounds each moving the node-pair aggregate at the
// leader's aggregated injection bandwidth, and a cut-through scatter whose
// last fragment hops the NVLink after the final round. The NVLink side (every
// byte crosses it once on egress) and the wire side progress on distinct
// ports; the slower stream sets the makespan. Mirrors mpisim's nodeAwareAlgo
// accounting.
func NodeAwareAlltoallTime(s AlltoallShape, cp CollParams) float64 {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 {
		return 0
	}
	if s.Nodes <= 1 || cp.LeaderBW <= 0 {
		// Flat group (or unknown placement): degenerates to NVLink streaming.
		return RingAlltoallTime(s, cp)
	}
	n := float64(s.Nodes)
	g := float64(s.PerNode)
	pipe := math.Max(1, cp.Pipeline)
	d := float64(s.Dst)

	// Per-rank off-node volume, split across the n−1 cyclic leader rounds.
	offRank := s.InterFrac * d * s.Bytes / (n - 1)
	// Gather slice: the slowest contributor streams its round share to the
	// leader over NVLink; slices drain in round order, so the steady-state
	// wire rate is bounded by max(round duration, gather slice).
	gSlice := cp.Inject + offRank/cp.IntraBW
	roundDur := cp.Inject + g*offRank/cp.LeaderBW
	step := math.Max(roundDur, gSlice)
	// Exposed pipeline edges: first gather fragment before round 1, the wire
	// latency of the last round (latency delays arrivals, not the sender's
	// chained rounds), and the last scatter fragment after it lands.
	wire := cp.Overhead + gSlice/pipe + cp.IntraLat +
		(n-1)*step + cp.InterLat +
		cp.Inject + offRank/(pipe*cp.IntraBW) + cp.IntraLat

	// NVLink egress: every rank streams all its blocks (gather slices plus
	// direct intra-node traffic) through its one intra-node port.
	nvlink := cp.Overhead + d*(cp.Inject+s.Bytes/cp.IntraBW) + cp.IntraLat

	return math.Max(wire, nvlink)
}

// AlltoallTime evaluates the closed form of one schedule, plus the
// schedule-independent checksum envelope term when CollParams enables it.
func AlltoallTime(a AlltoallAlgo, s AlltoallShape, cp CollParams) float64 {
	var t float64
	switch a {
	case AlltoallPairwise:
		t = PairwiseAlltoallTime(s, cp)
	case AlltoallRing:
		t = RingAlltoallTime(s, cp)
	case AlltoallBruck:
		t = BruckAlltoallTime(s, cp)
	case AlltoallNodeAware:
		t = NodeAwareAlltoallTime(s, cp)
	default:
		t = LinearAlltoallTime(s, cp)
	}
	if t > 0 {
		sn := s.norm()
		vol := float64(sn.Dst) * sn.Bytes
		t += ChecksumTime(vol, vol, cp)
	}
	return t
}

// PickAlltoall returns the schedule with the smallest predicted time for
// the shape — the heuristic behind AlgoAuto. Ties keep the earlier entry in
// {linear, ring, pairwise, bruck} order, so degenerate shapes (one rank, no
// traffic) fall back to the legacy path.
func PickAlltoall(s AlltoallShape, cp CollParams) AlltoallAlgo {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 || s.Bytes <= 0 {
		return AlltoallLinear
	}
	best, bt := AlltoallLinear, LinearAlltoallTime(s, cp)
	cands := [...]AlltoallAlgo{AlltoallRing, AlltoallPairwise, AlltoallBruck, AlltoallNodeAware}
	n := len(cands)
	if s.Nodes <= 1 || cp.LeaderBW <= 0 {
		n-- // no second level to schedule
	}
	for _, a := range cands[:n] {
		if t := AlltoallTime(a, s, cp); t < bt {
			best, bt = a, t
		}
	}
	// Near-tie against the streamed schedule goes to the hierarchical one.
	// The closed forms are steady-state, single-exchange: both drain the node
	// uplink at the same rate, so they land within model error of each other
	// in the aggregation regime. They differ under rank skew — the
	// unsynchronized per-rank streams let one late rank stretch every
	// receiver's tail, while the two-level schedule resynchronizes at node
	// granularity, an effect the simulator shows consistently on chained
	// multi-phase reshapes but a per-exchange form cannot price.
	if best == AlltoallRing && s.Nodes > 1 && cp.LeaderBW > 0 {
		if t := NodeAwareAlltoallTime(s, cp); t <= 1.03*bt {
			return AlltoallNodeAware
		}
	}
	return best
}
