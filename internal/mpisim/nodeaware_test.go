package mpisim

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// runExchangeOpts is runExchange with explicit world options, used to cover
// non-block placements.
func runExchangeOpts(t *testing.T, size int, seed int64, a Algo, opts Options) {
	t.Helper()
	data := randomSendMatrix(rand.New(rand.NewSource(seed)), size)
	got := make([][][]complex128, size)
	w := NewWorld(machine.Summit(), size, opts)
	res := w.Run(func(c *Comm) {
		r := c.Rank()
		send := make([]Buf, size)
		for d := 0; d < size; d++ {
			send[d] = Buf{Data: append([]complex128(nil), data[r][d]...), Loc: machine.Device}
		}
		recv := c.AlltoallvWith(send, a)
		rows := make([][]complex128, size)
		for s := 0; s < size; s++ {
			rows[s] = recv[s].Data
		}
		got[r] = rows
	})
	if res.Err != nil {
		t.Fatalf("size=%d algo=%v: %v", size, a, res.Err)
	}
	for r := 0; r < size; r++ {
		for s := 0; s < size; s++ {
			want, have := data[s][r], got[r][s]
			if len(want) != len(have) {
				t.Fatalf("size=%d algo=%v rank %d from %d: got %d elems, want %d",
					size, a, r, s, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("size=%d algo=%v rank %d from %d elem %d: got %v want %v",
						size, a, r, s, i, have[i], want[i])
				}
			}
		}
	}
}

// TestBitIdenticalAcrossPlacements: every schedule delivers the exact
// transpose under round-robin and sparse-permutation placements too — the
// topology layer changes only virtual time, never routing.
func TestBitIdenticalAcrossPlacements(t *testing.T) {
	perm := []int{0, 6, 12, 18, 1, 7, 13, 19} // 2 ranks on each of 4 nodes
	for _, a := range Algos() {
		runExchangeOpts(t, 14, 31+int64(a), a, Options{GPUAware: true, Placement: topo.RoundRobin()})
		runExchangeOpts(t, 8, 77+int64(a), a, Options{GPUAware: true, Placement: topo.Permutation(perm)})
	}
}

// denseClock runs a dense phantom all-to-all and returns the virtual makespan.
func denseClock(t testing.TB, m *machine.Model, size, elems int, a Algo, opts Options) float64 {
	w := NewWorld(m, size, opts)
	res := w.Run(func(c *Comm) {
		send := make([]Buf, size)
		for d := range send {
			send[d] = Buf{N: elems, Loc: machine.Device}
		}
		c.AlltoallvWith(send, a)
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.MaxClock
}

// TestNodeAwareWinsInterDominated: on a many-node Summit job with mid-size
// blocks, the two-level schedule must beat both the naive loop and flat
// pairwise — n−1 aggregated rounds at the full node injection pipe versus
// p−1 rounds at the per-rank share.
func TestNodeAwareWinsInterDominated(t *testing.T) {
	const size, elems = 72, 1 << 12 // 12 Summit nodes, 64 KiB blocks
	m := machine.Summit()
	clocks := map[Algo]float64{}
	for _, a := range Algos() {
		clocks[a] = denseClock(t, m, size, elems, a, Options{GPUAware: true})
		t.Logf("%-10s %8.1f µs", a, clocks[a]*1e6)
	}
	if clocks[AlgoNodeAware] >= clocks[AlgoLinear] {
		t.Errorf("node-aware (%v) should beat linear (%v)", clocks[AlgoNodeAware], clocks[AlgoLinear])
	}
	if clocks[AlgoNodeAware] >= clocks[AlgoPairwise] {
		t.Errorf("node-aware (%v) should beat pairwise (%v)", clocks[AlgoNodeAware], clocks[AlgoPairwise])
	}
	if clocks[AlgoNodeAware] >= clocks[AlgoRing] {
		t.Errorf("node-aware (%v) should beat ring (%v) at this shape", clocks[AlgoNodeAware], clocks[AlgoRing])
	}
}

// TestNodeAwareFlatGroupDegeneratesToRing: on a single node there is no
// leader phase — the schedule must cost exactly what NVLink streaming costs.
func TestNodeAwareFlatGroupDegeneratesToRing(t *testing.T) {
	m := machine.Summit()
	na := denseClock(t, m, 5, 1<<10, AlgoNodeAware, Options{GPUAware: true})
	ring := denseClock(t, m, 5, 1<<10, AlgoRing, Options{GPUAware: true})
	if na != ring {
		t.Errorf("flat node-aware %v != ring %v", na, ring)
	}
}

// TestNodeAwareOneRankPerNode: a sparse permutation putting every rank alone
// on its node turns the schedule into pure leader pairwise at the full
// injection pipe — it must still deliver and beat the same layout's linear.
func TestNodeAwareOneRankPerNode(t *testing.T) {
	perm := []int{0, 6, 12, 18}
	opts := Options{GPUAware: true, Placement: topo.Permutation(perm)}
	runExchangeOpts(t, 4, 5, AlgoNodeAware, opts)
	m := machine.Summit()
	na := denseClock(t, m, 4, 1<<14, AlgoNodeAware, opts)
	lin := denseClock(t, m, 4, 1<<14, AlgoLinear, opts)
	if na >= lin {
		t.Errorf("solo-per-node node-aware (%v) should beat linear (%v)", na, lin)
	}
}

// TestRoundRobinPlacementCostsMore: dealing consecutive ranks across nodes
// turns a mostly-intra-node subgroup exchange into an inter-node one; the
// same exchange must get slower. Uses a 6-rank subgroup of a 36-rank world
// (one Summit node's worth of ranks) exchanging densely.
func TestRoundRobinPlacementCostsMore(t *testing.T) {
	sub := func(p topo.Placement) float64 {
		w := NewWorld(machine.Summit(), 36, Options{GPUAware: true, Placement: p})
		res := w.Run(func(c *Comm) {
			grp := c.Split(c.Rank()/6, c.Rank())
			send := make([]Buf, grp.Size())
			for d := range send {
				send[d] = Buf{N: 1 << 12, Loc: machine.Device}
			}
			grp.AlltoallvWith(send, AlgoPairwise)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.MaxClock
	}
	block, rrobin := sub(topo.Block()), sub(topo.RoundRobin())
	if rrobin <= block {
		t.Errorf("round-robin (%v) should be slower than block (%v) for consecutive-rank groups", rrobin, block)
	}
}
