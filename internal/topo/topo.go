// Package topo models the communication topology of a job explicitly: which
// GPU slot each rank occupies (placement) and what bandwidth a given flow
// actually sees on its path. It replaces the block placement (rank →
// rank/GPUsPerNode) baked into the machine model since the first simulator.
//
// A System is built once per world from a machine.Model, a job size and a
// Placement. It prices flows like the machine model — injection-share
// bandwidth degraded by the calibrated SaturationFactor — except that the
// injection share is divided by the node's *actual* resident ranks rather
// than always GPUsPerNode, so ragged last nodes and sub-node jobs are no
// longer overcharged.
package topo

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Kind enumerates the built-in rank→GPU placement policies.
type Kind int

const (
	// KindBlock fills nodes in rank order: rank r sits on node r/GPUsPerNode.
	// This is how jobs are launched in all of the paper's experiments and is
	// the default everywhere.
	KindBlock Kind = iota
	// KindRoundRobin deals ranks across nodes like cards: rank r sits on node
	// r mod nnodes. Pencil rows (consecutive ranks) then span many nodes —
	// the classic pathological placement for FFT reshapes.
	KindRoundRobin
	// KindPermutation places rank r on the explicit GPU slot perm[r]
	// (node = slot/GPUsPerNode). Lets experiments pin arbitrary layouts,
	// including deliberately sparse ones (one rank per node).
	KindPermutation
)

// Placement maps ranks onto GPU slots. The zero value is block placement.
type Placement struct {
	kind Kind
	perm []int
}

// Block returns the default block placement.
func Block() Placement { return Placement{kind: KindBlock} }

// RoundRobin returns the round-robin placement.
func RoundRobin() Placement { return Placement{kind: KindRoundRobin} }

// Permutation returns an explicit placement: rank r occupies GPU slot
// perm[r], and slot s lives on node s/GPUsPerNode. Slots must be distinct
// and non-negative; they may exceed the job size to spread ranks thinly
// across more nodes than a block launch would use.
func Permutation(perm []int) Placement {
	p := append([]int(nil), perm...)
	return Placement{kind: KindPermutation, perm: p}
}

// Slots resolves the explicit rank→GPU-slot map this placement induces for a
// job of the given size (slot s lives on node s/GPUsPerNode). Health
// accounting uses it to attribute per-rank evidence to physical GPU slots,
// whose identity survives engine rebuilds under different placements. A
// permutation whose length does not match the size resolves as block — the
// world construction it feeds rejects such a placement anyway.
func (p Placement) Slots(m *machine.Model, size int) []int {
	slots := make([]int, size)
	gpn := m.GPUsPerNode
	switch {
	case p.kind == KindRoundRobin:
		// Node n's residents are n, n+nn, n+2nn, … so rank r is resident
		// index r/nn on node r%nn.
		nn := (size + gpn - 1) / gpn
		for r := range slots {
			slots[r] = (r%nn)*gpn + r/nn
		}
	case p.kind == KindPermutation && len(p.perm) == size:
		copy(slots, p.perm)
	default: // block
		for r := range slots {
			slots[r] = r
		}
	}
	return slots
}

func (p Placement) String() string {
	switch p.kind {
	case KindBlock:
		return "block"
	case KindRoundRobin:
		return "round-robin"
	case KindPermutation:
		return fmt.Sprintf("permutation(%d)", len(p.perm))
	}
	return fmt.Sprintf("placement(%d)", int(p.kind))
}

// System is the resolved topology of one job: every rank's node and each
// node's resident count and leader. All methods take world ranks.
type System struct {
	m     *machine.Model
	place Placement

	nodeOf    []int   // rank → node
	nodeRanks [][]int // node → resident ranks, ascending
	leaders   []int   // node → lowest resident rank
}

// New resolves a placement against a machine and job size.
func New(m *machine.Model, size int, place Placement) (*System, error) {
	if size < 1 {
		return nil, fmt.Errorf("topo: invalid job size %d", size)
	}
	gpn := m.GPUsPerNode
	raw := make([]int, size) // rank → raw node id (possibly sparse)
	switch place.kind {
	case KindBlock:
		for r := range raw {
			raw[r] = r / gpn
		}
	case KindRoundRobin:
		nn := (size + gpn - 1) / gpn
		for r := range raw {
			raw[r] = r % nn
		}
	case KindPermutation:
		if len(place.perm) != size {
			return nil, fmt.Errorf("topo: permutation has %d slots for %d ranks", len(place.perm), size)
		}
		seen := make(map[int]bool, size)
		for r, slot := range place.perm {
			if slot < 0 {
				return nil, fmt.Errorf("topo: negative GPU slot %d for rank %d", slot, r)
			}
			if seen[slot] {
				return nil, fmt.Errorf("topo: GPU slot %d assigned twice", slot)
			}
			seen[slot] = true
			raw[r] = slot / gpn
		}
	default:
		return nil, fmt.Errorf("topo: unknown placement kind %d", int(place.kind))
	}

	// Compact raw node ids into dense indices in ascending raw order, so
	// permutations with holes still produce residents-per-node counts.
	distinct := map[int]bool{}
	for _, n := range raw {
		distinct[n] = true
	}
	ids := make([]int, 0, len(distinct))
	for n := range distinct {
		ids = append(ids, n)
	}
	sort.Ints(ids)
	dense := make(map[int]int, len(ids))
	for i, n := range ids {
		dense[n] = i
	}

	s := &System{
		m:         m,
		place:     place,
		nodeOf:    make([]int, size),
		nodeRanks: make([][]int, len(ids)),
		leaders:   make([]int, len(ids)),
	}
	for r, n := range raw {
		id := dense[n]
		s.nodeOf[r] = id
		s.nodeRanks[id] = append(s.nodeRanks[id], r)
	}
	for n, ranks := range s.nodeRanks {
		s.leaders[n] = ranks[0]
	}
	return s, nil
}

// Default returns the legacy topology: block placement. It cannot fail for a
// valid size.
func Default(m *machine.Model, size int) *System {
	s, err := New(m, size, Block())
	if err != nil {
		panic(err)
	}
	return s
}

// Nodes returns the number of occupied nodes.
func (s *System) Nodes() int { return len(s.nodeRanks) }

// Placement returns the placement the system was built with.
func (s *System) Placement() Placement { return s.place }

// Node reports the (dense) node index hosting a world rank.
func (s *System) Node(rank int) int { return s.nodeOf[rank] }

// SameNode reports whether two world ranks share a node.
func (s *System) SameNode(a, b int) bool { return s.nodeOf[a] == s.nodeOf[b] }

// Leader returns the lowest world rank resident on a node.
func (s *System) Leader(node int) int { return s.leaders[node] }

// Latency returns the wire latency between two world ranks.
func (s *System) Latency(a, b int) float64 {
	if s.SameNode(a, b) {
		return s.m.IntraLatency
	}
	return s.m.InterLatency
}

// InjShare is the injection-bandwidth share of one resident flow on a node:
// the node's injection bandwidth divided by its actual resident ranks (not
// GPUsPerNode — a ragged last node or a sub-node job leaves each rank more
// headroom).
func (s *System) InjShare(node int) float64 {
	r := len(s.nodeRanks[node])
	if r < 1 {
		r = 1
	}
	return s.m.NodeInjectionBW / float64(r)
}

// SchedFlowBW is the per-flow bandwidth a *scheduled* transfer sees between
// two world ranks: permutation rounds keep one flow per rank, so each flow
// gets its clean injection share.
func (s *System) SchedFlowBW(src, dst int) float64 {
	if s.SameNode(src, dst) {
		return s.m.IntraBW
	}
	return s.InjShare(s.nodeOf[src])
}

// NaiveFlowBW is the per-flow bandwidth of *unscheduled* traffic (the naive
// per-destination loop, generic P2P): the injection share degraded by the
// machine's calibrated fabric saturation factor.
func (s *System) NaiveFlowBW(src, dst int) float64 {
	if s.SameNode(src, dst) {
		return s.m.IntraBW
	}
	return s.InjShare(s.nodeOf[src]) * s.m.SaturationFactor(s.Nodes())
}

// LeaderBW is the bandwidth a per-node leader flow drives off a node when it
// aggregates the traffic of aggr group ranks resident on that node. The leader gets the group's fair share of the node's injection
// bandwidth concentrated into a single flow — concurrent exchange groups on
// the same node keep their own shares.
func (s *System) LeaderBW(node, aggr int) float64 {
	res := len(s.nodeRanks[node])
	if res < 1 {
		res = 1
	}
	if aggr <= 0 || aggr > res {
		aggr = res
	}
	return s.m.NodeInjectionBW * float64(aggr) / float64(res)
}

// Path resolves the machine-model path between two world ranks for naive
// (unscheduled) costing — the bandwidth MsgCostOn charges port time at.
func (s *System) Path(src, dst int) machine.Path {
	return machine.Path{
		SameNode: s.SameNode(src, dst),
		BW:       s.NaiveFlowBW(src, dst),
		Latency:  s.Latency(src, dst),
	}
}
