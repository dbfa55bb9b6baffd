package core

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// rowColBoxes builds a dense p×p exchange: rank i holds row i and wants
// column i of a p×p×1 grid, so every ordered pair carries exactly one
// element.
func rowColBoxes(p int) (from, to []tensor.Box3) {
	from = make([]tensor.Box3, p)
	to = make([]tensor.Box3, p)
	for i := 0; i < p; i++ {
		from[i] = tensor.Box3{Lo: [3]int{i, 0, 0}, Hi: [3]int{i + 1, p, 1}}
		to[i] = tensor.Box3{Lo: [3]int{0, i, 0}, Hi: [3]int{p, i + 1, 1}}
	}
	return from, to
}

// TestComputeExchStatsTopology: the stats pass must report the group's
// volumes and node footprint exactly — these numbers are what auto-chunking
// and CommPhase.Schedule consume.
func TestComputeExchStatsTopology(t *testing.T) {
	m := machine.Summit() // 6 GPUs per node
	const p = 12          // two full nodes
	sys := topo.Default(m, p)
	from, to := rowColBoxes(p)
	st := computeReshapeTable(sys, func(r int) int { return r }, from, to).stats[0] // one group, rooted at rank 0

	if st.gs != p || st.pairs != p*(p-1) || st.totalElems != p*(p-1) {
		t.Fatalf("gs=%d pairs=%d total=%d, want 12/132/132", st.gs, st.pairs, st.totalElems)
	}
	if st.maxRows != 1 {
		t.Errorf("maxRows=%d, want 1", st.maxRows)
	}
	if st.nodes != 2 || st.maxPerNode != 6 {
		t.Errorf("nodes=%d maxPerNode=%d, want 2/6", st.nodes, st.maxPerNode)
	}
}

// TestComputeExchStatsIntraOnly: a group confined to one node must report a
// one-node footprint.
func TestComputeExchStatsIntraOnly(t *testing.T) {
	m := machine.Summit()
	sys := topo.Default(m, 6)
	from, to := rowColBoxes(6)
	st := computeReshapeTable(sys, func(r int) int { return r }, from, to).stats[0]
	if st.nodes != 1 || st.maxPerNode != 6 {
		t.Errorf("nodes=%d maxPerNode=%d, want 1/6", st.nodes, st.maxPerNode)
	}
}

// TestCommPhasesIntrospection: CommPhases must expose the resolved schedule
// of every reshape — including the two-level description when the node-aware
// schedule is forced on a multi-node group.
func TestCommPhasesIntrospection(t *testing.T) {
	const size = 12 // two Summit nodes
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{16, 16, 16}, Opts: Options{
			Decomp: DecompPencils, Backend: BackendAlltoallv,
			Comm: CommConfig{Algo: CollNodeAware},
		}})
		if err != nil {
			panic(err)
		}
		defer p.Close()
		phases := p.CommPhases()
		if len(phases) == 0 {
			panic("CommPhases is empty")
		}
		sawMultiNode := false
		for _, ph := range phases {
			if ph.Label == "" {
				panic("phase without label")
			}
			if ph.GroupSize == 0 {
				continue
			}
			if ph.Algo != CollNodeAware {
				panic("forced algo not reported: " + ph.Algo.String())
			}
			if ph.Chunks < 1 {
				panic("phase without chunk count")
			}
			switch {
			case strings.HasPrefix(ph.Schedule, "2-level("):
				sawMultiNode = true
			case ph.Schedule != "flat":
				panic("unexpected schedule: " + ph.Schedule)
			}
		}
		if c.Rank() == 0 && !sawMultiNode {
			panic("no phase reported a 2-level schedule on a 2-node world")
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestCommPhasesAutoResolves: with CollAuto the report must contain the
// concrete schedule the heuristic picked, never "auto".
func TestCommPhasesAutoResolves(t *testing.T) {
	const size = 12
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{32, 32, 32}, Opts: Options{
			Decomp: DecompPencils, Backend: BackendAlltoallv,
		}})
		if err != nil {
			panic(err)
		}
		defer p.Close()
		for _, ph := range p.CommPhases() {
			if ph.GroupSize > 0 && ph.Algo == CollAuto {
				panic("CommPhases leaked unresolved CollAuto")
			}
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}

// TestResolveTableFrozen: a reshape decides its schedule once per (on-wire
// element size, batch width) and reads the decision afterwards. A 96-rank
// Table III phantom plan executed at widths 1, 4, 1, 4 ends up with exactly
// two rows per Alltoallv reshape — both there after the second call, none
// added by the repeats — each equal to a fresh resolve of the same arguments,
// and CommPhases reports the width-1 row without adding one.
func TestResolveTableFrozen(t *testing.T) {
	const ranks = 96
	cfg := tableIIIPlan(ranks, DecompPencils)
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			c.Fail(err)
		}
		var reshapes []*reshapePlan
		for _, st := range p.stages {
			if st.kind == stageReshape && st.rs.group != nil {
				reshapes = append(reshapes, st.rs)
			}
		}
		if len(reshapes) == 0 {
			t.Errorf("rank %d takes part in no reshape", c.Rank())
		}
		for call, width := range []int{1, 4, 1, 4} {
			fs := make([]*Field, width)
			for i := range fs {
				fs[i] = NewPhantom(p.InBox())
			}
			if err := p.ForwardBatch(fs); err != nil {
				c.Fail(err)
			}
			want := 2
			if call == 0 {
				want = 1
			}
			for _, rs := range reshapes {
				if len(rs.table) != want {
					t.Errorf("rank %d reshape %s: %d rows after call %d (width %d), want %d",
						c.Rank(), rs.label, len(rs.table), call, width, want)
				}
			}
		}
		phases := map[string]CommPhase{}
		for _, cp := range p.CommPhases() {
			phases[cp.Label] = cp
		}
		for _, rs := range reshapes {
			for _, f := range rs.table {
				algo, chunks, overlap := rs.resolve(p.opts, f.web, f.batch)
				if f.algo != algo || f.chunks != chunks || f.overlap != overlap {
					t.Errorf("rank %d reshape %s: row %+v, fresh resolve gives (%v, %d, %v)",
						c.Rank(), rs.label, f, algo, chunks, overlap)
				}
			}
			if len(rs.table) != 2 {
				t.Errorf("rank %d reshape %s: CommPhases grew the table to %d rows", c.Rank(), rs.label, len(rs.table))
				continue
			}
			one, cp := rs.table[0], phases[rs.label]
			if one.batch != 1 || one.web != 16 {
				t.Errorf("rank %d reshape %s: first row is %+v, want the width-1 fp64 row", c.Rank(), rs.label, one)
			}
			if cp.Algo != collAlgoOf(one.algo) || cp.Chunks != one.chunks || cp.Overlap != one.overlap {
				t.Errorf("rank %d reshape %s: CommPhases reports (%v, %d, %v), width-1 row is %+v",
					c.Rank(), rs.label, cp.Algo, cp.Chunks, cp.Overlap, one)
			}
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
}
