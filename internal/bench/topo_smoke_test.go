package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// topoForwardGather runs one real-payload Forward under a placement map and
// returns the gathered global spectrum: the routing, not the cost model, is
// under test here.
func topoForwardGather(t *testing.T, m *machine.Model, global [3]int, ranks int,
	algo core.CollAlgo, place topo.Placement, seed int64) []complex128 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make([]complex128, global[0]*global[1]*global[2])
	for i := range ref {
		ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	full := tensor.FullBox(global)
	outDatas := make([][]complex128, ranks)
	outBoxes := make([]tensor.Box3, ranks)
	w := mpisim.NewWorld(m, ranks, mpisim.Options{GPUAware: true, Placement: place})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := core.NewPlan(c, core.Config{Global: global, Opts: core.Options{
			Backend: core.BackendAlltoallv,
			Comm:    core.CommConfig{Algo: algo},
		}})
		if err != nil {
			panic(err)
		}
		defer p.Close()
		in := p.InBox()
		data := make([]complex128, in.Volume())
		tensor.Pack(ref, full, in, data)
		f := &core.Field{Box: in, Data: data}
		if err := p.Forward(f); err != nil {
			panic(err)
		}
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
	})
	if res.Err != nil {
		t.Fatalf("forward(%v, %v): %v", algo, global, res.Err)
	}
	out := make([]complex128, len(ref))
	for r, b := range outBoxes {
		if b.Volume() > 0 {
			tensor.Unpack(out, full, b, outDatas[r])
		}
	}
	return out
}

// TestTopoSmoke is the tier-1 gate for the topology layer:
//
//  1. Correctness: the node-aware two-level schedule must be bit-identical to
//     the linear baseline on a real payload under round-robin placement — the
//     placement that forces nearly every block across a node boundary, so the
//     gather/leader/scatter path actually routes the data.
//  2. Performance: on an inter-node-dominated shape (large blocks,
//     round-robin over 8 Summit nodes) the two-level schedule must not lose
//     to the strongest flat schedule — the regime it exists for.
func TestTopoSmoke(t *testing.T) {
	m := machine.Summit()

	// Bit-identity on a non-uniform grid (13×10×9 over 12 bricks divides
	// nothing evenly) under the placement that maximizes inter-node pairs.
	global := [3]int{13, 10, 9}
	const ranks, seed = 12, 47
	want := topoForwardGather(t, m, global, ranks, core.CollLinear, topo.RoundRobin(), seed)
	got := topoForwardGather(t, m, global, ranks, core.CollNodeAware, topo.RoundRobin(), seed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node-aware: element %d = %v, want %v (not bit-identical to linear)", i, got[i], want[i])
		}
	}

	// Large-message inter-node regime: 256³ over 48 ranks dealt round-robin
	// onto 8 nodes. Phantom payloads — only the virtual clock matters here.
	grid := [3]int{256, 256, 256}
	forward := func(a core.CollAlgo) (float64, error) {
		w := mpisim.NewWorld(m, 48, mpisim.Options{GPUAware: true, Placement: topo.RoundRobin()})
		return forwardOnce(w, forcedAlgo(grid, a), phantom)
	}
	ring, err := forward(core.CollRing)
	if err != nil {
		t.Fatal(err)
	}
	na, err := forward(core.CollNodeAware)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("256³/48 ranks round-robin: ring %.1fµs, node-aware %.1fµs (%.2f×)",
		ring*1e6, na*1e6, ring/na)
	if na > ring {
		t.Errorf("node-aware (%.1fµs) slower than ring (%.1fµs) on an inter-node-dominated shape", na*1e6, ring*1e6)
	}
}
