package topo

import (
	"math"
	"testing"

	"repro/internal/machine"
)

// residents reports how many ranks live on a node.
func residents(s *System, node int) int { return len(s.nodeRanks[node]) }

func TestBlockPlacementMatchesLegacy(t *testing.T) {
	m := machine.Summit()
	s := Default(m, 14) // 2 full nodes + ragged node of 2
	if s.Nodes() != 3 {
		t.Fatalf("Nodes = %d, want 3", s.Nodes())
	}
	for r := 0; r < 14; r++ {
		if s.Node(r) != m.Node(r) {
			t.Errorf("rank %d: topo node %d != legacy %d", r, s.Node(r), m.Node(r))
		}
	}
	if residents(s, 0) != 6 || residents(s, 2) != 2 {
		t.Errorf("residents = %d,%d want 6,2", residents(s, 0), residents(s, 2))
	}
	if s.Leader(1) != 6 {
		t.Errorf("leader of node 1 = %d, want 6", s.Leader(1))
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	m := machine.Summit()
	s, err := New(m, 14, RoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	// ceil(14/6) = 3 nodes; rank r sits on node r mod 3.
	if s.Nodes() != 3 {
		t.Fatalf("Nodes = %d, want 3", s.Nodes())
	}
	for r := 0; r < 14; r++ {
		if s.Node(r) != r%3 {
			t.Errorf("rank %d on node %d, want %d", r, s.Node(r), r%3)
		}
	}
	// Residents: 14 ranks over 3 nodes → 5,5,4.
	if residents(s, 0) != 5 || residents(s, 1) != 5 || residents(s, 2) != 4 {
		t.Errorf("residents = %d,%d,%d", residents(s, 0), residents(s, 1), residents(s, 2))
	}
	// Consecutive ranks never share a node (until wrap).
	if s.SameNode(0, 1) || !s.SameNode(0, 3) {
		t.Error("round-robin adjacency wrong")
	}
}

func TestPermutationPlacement(t *testing.T) {
	m := machine.Summit()
	// Spread 4 ranks one per node: slots 0, 6, 12, 18.
	s, err := New(m, 4, Permutation([]int{0, 6, 12, 18}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes() != 4 {
		t.Fatalf("Nodes = %d, want 4", s.Nodes())
	}
	for r := 0; r < 4; r++ {
		if s.Node(r) != r || residents(s, r) != 1 || s.Leader(r) != r {
			t.Errorf("rank %d: node=%d residents=%d leader=%d", r, s.Node(r), residents(s, r), s.Leader(r))
		}
	}
	// Sole resident gets the whole injection pipe.
	if bw := s.SchedFlowBW(0, 1); bw != m.NodeInjectionBW {
		t.Errorf("solo-resident sched bw = %g, want full injection %g", bw, m.NodeInjectionBW)
	}
}

func TestPermutationValidation(t *testing.T) {
	m := machine.Summit()
	if _, err := New(m, 3, Permutation([]int{0, 1})); err == nil {
		t.Error("wrong-length permutation accepted")
	}
	if _, err := New(m, 2, Permutation([]int{3, 3})); err == nil {
		t.Error("duplicate slot accepted")
	}
	if _, err := New(m, 2, Permutation([]int{-1, 0})); err == nil {
		t.Error("negative slot accepted")
	}
}

func TestNaiveFlowBWMatchesMachine(t *testing.T) {
	m := machine.Summit()
	for _, size := range []int{1, 5, 12, 64} {
		s := Default(m, size)
		for _, pair := range [][2]int{{0, size - 1}, {size - 1, 0}} {
			a, b := pair[0], pair[1]
			if a == b {
				continue
			}
			got := s.NaiveFlowBW(a, b)
			want := m.FlowBW(a, b, size)
			if math.Abs(got-want)/want > 1e-12 {
				t.Errorf("size %d (%d→%d): topo %g != machine %g", size, a, b, got, want)
			}
		}
	}
}

func TestSchedVsNaive(t *testing.T) {
	m := machine.Summit()
	s := Default(m, 24)
	// Scheduled traffic skips the saturation factor.
	if s.SchedFlowBW(0, 23) <= s.NaiveFlowBW(0, 23) {
		t.Error("scheduled inter flow should beat naive")
	}
	// Intra-node flows are identical.
	if s.SchedFlowBW(0, 1) != m.IntraBW || s.NaiveFlowBW(0, 1) != m.IntraBW {
		t.Error("intra-node flows should see IntraBW")
	}
}

// TestInjShareCountsResidents: a flow's injection share divides the node's
// pipe by the ranks actually resident there, and unscheduled inter-node
// traffic degrades that share by the saturation factor of the occupied nodes.
func TestInjShareCountsResidents(t *testing.T) {
	m := machine.Summit()
	s, err := New(m, 14, RoundRobin()) // 5, 5 and 4 residents
	if err != nil {
		t.Fatal(err)
	}
	for node, res := range []int{5, 5, 4} {
		if got, want := s.InjShare(node), m.NodeInjectionBW/float64(res); got != want {
			t.Errorf("node %d: InjShare = %g, want %g", node, got, want)
		}
	}
	// Rank 2 sits on the four-resident node.
	if got, want := s.SchedFlowBW(2, 0), m.NodeInjectionBW/4; got != want {
		t.Errorf("sched bw from the short node = %g, want %g", got, want)
	}
	if got, want := s.NaiveFlowBW(2, 0), m.NodeInjectionBW/4*m.SaturationFactor(3); got != want {
		t.Errorf("naive bw from the short node = %g, want %g", got, want)
	}
}

func TestLeaderBW(t *testing.T) {
	m := machine.Summit()
	s := Default(m, 18) // 3 full nodes
	// A leader aggregating the whole node drives the full injection pipe.
	if bw := s.LeaderBW(0, 6); bw != m.NodeInjectionBW {
		t.Errorf("full-node leader bw = %g, want %g", bw, m.NodeInjectionBW)
	}
	// Aggregating only 2 of 6 residents concentrates just the group's share.
	want := m.NodeInjectionBW * 2 / 6
	if bw := s.LeaderBW(0, 2); math.Abs(bw-want)/want > 1e-12 {
		t.Errorf("partial leader bw = %g, want %g", bw, want)
	}
	// aggr out of range clamps to the residents.
	if s.LeaderBW(0, 0) != m.NodeInjectionBW || s.LeaderBW(0, 99) != m.NodeInjectionBW {
		t.Error("aggr clamping wrong")
	}
}

func TestPathResolution(t *testing.T) {
	m := machine.Summit()
	s := Default(m, 12)
	p := s.Path(0, 7)
	if p.SameNode || p.BW != s.NaiveFlowBW(0, 7) || p.Latency != m.InterLatency {
		t.Errorf("inter path = %+v", p)
	}
	p = s.Path(0, 1)
	if !p.SameNode || p.BW != m.IntraBW || p.Latency != m.IntraLatency {
		t.Errorf("intra path = %+v", p)
	}
}

func TestPlacementString(t *testing.T) {
	if Block().String() != "block" || RoundRobin().String() != "round-robin" {
		t.Error("placement names wrong")
	}
	if Permutation([]int{0, 1}).String() != "permutation(2)" {
		t.Error("permutation name wrong")
	}
}
