// Package topo models the communication topology of a job explicitly: which
// GPU slot each rank occupies (placement), how nodes hang off the switch
// hierarchy (fabric), and what bandwidth a given flow actually sees on its
// path. It replaces two simplifications baked into the machine model since
// the first simulator: block placement (rank → rank/GPUsPerNode) and the
// phenomenological fabric saturation factor.
//
// A System is built once per world from a machine.Model, a job size, a
// Placement and an optional Fabric. Without a fabric it reproduces the
// legacy behaviour — injection-share bandwidth degraded by the calibrated
// SaturationFactor — except that the injection share is divided by the
// node's *actual* resident ranks rather than always GPUsPerNode, so ragged
// last nodes and sub-node jobs are no longer overcharged. With a fabric, the
// saturation heuristic is replaced by structural contention: concurrent
// flows crossing a switch uplink share its capacity, and unscheduled
// (non-permutation) traffic additionally sheds a calibrated adaptive-routing
// loss per fabric level it crosses.
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

// Kind reports the placement policy.
func (p Placement) Kind() Kind { return p.kind }

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

// Fabric describes the switch level of the hierarchy. When attached to a
// System it replaces the machine model's phenomenological SaturationFactor
// with structural contention computed from concurrent flows.
type Fabric struct {
	// NodesPerSwitch groups consecutive nodes under leaf switches.
	NodesPerSwitch int
	// UplinkBW is the capacity of one leaf switch's uplink into the spine
	// (bytes/second), shared by the concurrent flows crossing it.
	UplinkBW float64
	// InjectionBW, when positive, overrides the machine model's
	// NodeInjectionBW (e.g. to model a rail failure).
	InjectionBW float64
	// AdaptiveLoss is the fractional per-flow bandwidth lost to adaptive
	// routing by *unscheduled* traffic for each fabric level it crosses
	// (node→switch, switch→spine). Scheduled permutation rounds do not pay
	// it — that is the structural reading of why MPI schedules all-to-alls.
	AdaptiveLoss float64
}

// Validate checks the fabric parameters.
func (f *Fabric) Validate() error {
	if f.NodesPerSwitch < 1 {
		return fmt.Errorf("topo: NodesPerSwitch must be >= 1, got %d", f.NodesPerSwitch)
	}
	if f.UplinkBW <= 0 {
		return fmt.Errorf("topo: UplinkBW must be positive, got %g", f.UplinkBW)
	}
	if f.InjectionBW < 0 {
		return fmt.Errorf("topo: InjectionBW must be >= 0, got %g", f.InjectionBW)
	}
	if f.AdaptiveLoss < 0 || f.AdaptiveLoss >= 1 {
		return fmt.Errorf("topo: AdaptiveLoss must be in [0,1), got %g", f.AdaptiveLoss)
	}
	return nil
}

// System is the resolved topology of one job: every rank's node, each node's
// resident count and leader, and the switch each node hangs off. All methods
// take world ranks.
type System struct {
	m      *machine.Model
	size   int
	place  Placement
	fabric *Fabric

	nodeOf    []int   // rank → node
	localOf   []int   // rank → index among its node's residents
	nodeRanks [][]int // node → resident ranks, ascending
	leaders   []int   // node → lowest resident rank

	switchOf   []int // node → leaf switch
	ranksUnder []int // switch → resident ranks
	nodesUnder []int // switch → nodes
}

// New resolves a placement (and optional fabric) against a machine and job
// size.
func New(m *machine.Model, size int, place Placement, fabric *Fabric) (*System, error) {
	if size < 1 {
		return nil, fmt.Errorf("topo: invalid job size %d", size)
	}
	if fabric != nil {
		if err := fabric.Validate(); err != nil {
			return nil, err
		}
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
		size:      size,
		place:     place,
		fabric:    fabric,
		nodeOf:    make([]int, size),
		localOf:   make([]int, size),
		nodeRanks: make([][]int, len(ids)),
		leaders:   make([]int, len(ids)),
	}
	for r, n := range raw {
		id := dense[n]
		s.nodeOf[r] = id
		s.localOf[r] = len(s.nodeRanks[id])
		s.nodeRanks[id] = append(s.nodeRanks[id], r)
	}
	for n, ranks := range s.nodeRanks {
		s.leaders[n] = ranks[0]
	}

	nn := len(ids)
	nps := nn // no fabric: one flat "switch" (never crossed)
	if fabric != nil {
		nps = fabric.NodesPerSwitch
	}
	nsw := (nn + nps - 1) / nps
	s.switchOf = make([]int, nn)
	s.ranksUnder = make([]int, nsw)
	s.nodesUnder = make([]int, nsw)
	for n := 0; n < nn; n++ {
		sw := n / nps
		s.switchOf[n] = sw
		s.ranksUnder[sw] += len(s.nodeRanks[n])
		s.nodesUnder[sw]++
	}
	return s, nil
}

// Default returns the legacy topology: block placement, no fabric. It cannot
// fail for a valid size.
func Default(m *machine.Model, size int) *System {
	s, err := New(m, size, Block(), nil)
	if err != nil {
		panic(err)
	}
	return s
}

// Model returns the machine model the system was resolved against.
func (s *System) Model() *machine.Model { return s.m }

// Size returns the job size.
func (s *System) Size() int { return s.size }

// Nodes returns the number of occupied nodes.
func (s *System) Nodes() int { return len(s.nodeRanks) }

// Placement returns the placement the system was built with.
func (s *System) Placement() Placement { return s.place }

// Fabric returns the attached fabric (nil for the legacy saturation model).
func (s *System) Fabric() *Fabric { return s.fabric }

// Node reports the (dense) node index hosting a world rank.
func (s *System) Node(rank int) int { return s.nodeOf[rank] }

// SameNode reports whether two world ranks share a node.
func (s *System) SameNode(a, b int) bool { return s.nodeOf[a] == s.nodeOf[b] }

// Residents reports how many ranks live on a node.
func (s *System) Residents(node int) int { return len(s.nodeRanks[node]) }

// Leader returns the lowest world rank resident on a node.
func (s *System) Leader(node int) int { return s.leaders[node] }

// Latency returns the wire latency between two world ranks.
func (s *System) Latency(a, b int) float64 {
	if s.SameNode(a, b) {
		return s.m.IntraLatency
	}
	return s.m.InterLatency
}

// injBW is the node injection bandwidth in effect.
func (s *System) injBW() float64 {
	if s.fabric != nil && s.fabric.InjectionBW > 0 {
		return s.fabric.InjectionBW
	}
	return s.m.NodeInjectionBW
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
	return s.injBW() / float64(r)
}

// uplinkShare is the per-flow share of a leaf switch's uplink when every
// rank under it drives one flow across (the worst permutation round).
func (s *System) uplinkShare(sw int) float64 {
	cross := s.ranksUnder[sw]
	if out := s.size - s.ranksUnder[sw]; out < cross {
		cross = out
	}
	if cross < 1 {
		cross = 1
	}
	return s.fabric.UplinkBW / float64(cross)
}

// SchedFlowBW is the per-flow bandwidth a *scheduled* transfer sees between
// two world ranks: permutation rounds keep one flow per rank, so each flow
// gets its clean injection share, capped (with a fabric) by its share of any
// switch uplink it crosses. No adaptive-routing loss applies.
func (s *System) SchedFlowBW(src, dst int) float64 {
	if s.SameNode(src, dst) {
		return s.m.IntraBW
	}
	bw := s.InjShare(s.nodeOf[src])
	if s.fabric != nil {
		a, b := s.switchOf[s.nodeOf[src]], s.switchOf[s.nodeOf[dst]]
		if a != b {
			if up := s.uplinkShare(a); up < bw {
				bw = up
			}
			if up := s.uplinkShare(b); up < bw {
				bw = up
			}
		}
	}
	return bw
}

// NaiveFlowBW is the per-flow bandwidth of *unscheduled* traffic (the naive
// per-destination loop, generic P2P): the injection share degraded by fabric
// contention. Without a fabric that is the machine's calibrated saturation
// factor; with one, the structural uplink share times an adaptive-routing
// loss per fabric level crossed.
func (s *System) NaiveFlowBW(src, dst int) float64 {
	if s.SameNode(src, dst) {
		return s.m.IntraBW
	}
	if s.fabric == nil {
		return s.InjShare(s.nodeOf[src]) * s.m.SaturationFactor(s.Nodes())
	}
	bw := s.SchedFlowBW(src, dst)
	loss := 1 - s.fabric.AdaptiveLoss
	if s.switchOf[s.nodeOf[src]] != s.switchOf[s.nodeOf[dst]] {
		loss *= loss // second level crossed (switch → spine)
	}
	return bw * loss
}

// LeaderBW is the bandwidth a per-node leader flow drives between two nodes
// when it aggregates the traffic of aggr group ranks resident on the source
// node. The leader gets the group's fair share of the node's injection
// bandwidth concentrated into a single flow — concurrent exchange groups on
// the same node keep their own shares — capped by the uplink share among
// node-leader flows when a fabric is attached.
func (s *System) LeaderBW(srcNode, dstNode, aggr int) float64 {
	res := len(s.nodeRanks[srcNode])
	if res < 1 {
		res = 1
	}
	if aggr <= 0 || aggr > res {
		aggr = res
	}
	bw := s.injBW() * float64(aggr) / float64(res)
	if s.fabric != nil {
		a, b := s.switchOf[srcNode], s.switchOf[dstNode]
		if a != b {
			nn := len(s.nodeRanks)
			for _, sw := range [2]int{a, b} {
				cross := s.nodesUnder[sw]
				if out := nn - s.nodesUnder[sw]; out < cross {
					cross = out
				}
				if cross < 1 {
					cross = 1
				}
				if up := s.fabric.UplinkBW / float64(cross); up < bw {
					bw = up
				}
			}
		}
	}
	return bw
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
