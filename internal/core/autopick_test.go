package core

import (
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// TestAutoPickIsArgMin: under CollAuto every reshape of every plan shape runs
// the schedule PriceAlltoallv ranks first for that phase's own byte matrix —
// tried in the order linear, ring, pairwise, Bruck, node-aware (multi-node
// groups only), strict minimum — all members of a group agree, and CommPhases
// reports that schedule. The matrix is rebuilt here from what the ranks
// actually send (each member contributes the row its exchange driver packs),
// not from the shared table pickAlgo reads, so a reversed R2C reshape is
// checked against its own transposed rows. With the whole input and output on
// rank 0 the input reshape is a scatter and the output reshape a gather, which
// want different schedules. Reversed reshapes also chunk exactly where the
// forward phase of the same volume does.
func TestAutoPickIsArgMin(t *testing.T) {
	aware := mpisim.Options{GPUAware: true}
	staged := mpisim.Options{}
	rr := mpisim.Options{GPUAware: true, Placement: topo.RoundRobin()}
	cube := [3]int{32, 32, 32}
	cases := []struct {
		name   string
		ranks  int
		global [3]int
		decomp Decomposition
		world  mpisim.Options
		real   bool
		// root puts the whole input and output on rank 0.
		root bool
		// chunked demands that some reshape auto-chunks (staged, ≥ 2 MiB/rank).
		chunked bool
	}{
		{"slabs/block", 16, cube, DecompSlabs, aware, false, false, false},
		{"slabs/round-robin", 16, cube, DecompSlabs, rr, false, false, false},
		{"slabs/staged", 16, [3]int{128, 128, 128}, DecompSlabs, staged, false, false, false},
		{"pencils/block", 24, [3]int{64, 64, 64}, DecompPencils, aware, false, false, false},
		{"pencils/round-robin", 24, cube, DecompPencils, rr, false, false, false},
		{"pencils/staged", 12, cube, DecompPencils, staged, false, false, false},
		{"bricks/block", 16, cube, DecompBricks, aware, false, false, false},
		{"bricks/round-robin", 12, [3]int{13, 10, 9}, DecompBricks, rr, false, false, false},
		{"bricks/staged", 16, cube, DecompBricks, staged, false, false, false},
		{"real/block", 16, cube, DecompAuto, aware, true, false, false},
		{"real/round-robin", 12, [3]int{8, 12, 10}, DecompAuto, rr, true, false, false},
		{"real/staged-256", 12, [3]int{256, 256, 256}, DecompAuto, staged, true, false, true},
		{"pencils/scatter-gather", 8, [3]int{16, 16, 16}, DecompPencils, rr, false, true, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			// One entry per (stage list, stage, exchange group): the group's rows
			// as its members deposit them, and every member's resolved schedule.
			type phaseKey struct{ list, stage, lead int }
			var mu sync.Mutex
			rows := map[phaseKey][][]mpisim.Flow{}
			picked := map[phaseKey]map[mpisim.Algo]bool{}
			sawChunks := false

			opts := Options{Decomp: tc.decomp, Backend: BackendAlltoallv}
			w := mpisim.NewWorld(machine.Summit(), tc.ranks, tc.world)
			res := w.Run(func(c *mpisim.Comm) {
				var lists [][]stage
				var phases []CommPhase
				if tc.real {
					p, err := NewRealPlan(c, RealConfig{Global: tc.global, Opts: opts})
					if err != nil {
						c.Fail(err)
					}
					lists = [][]stage{p.stages, p.revStages}
				} else {
					var root []tensor.Box3
					if tc.root {
						root = make([]tensor.Box3, tc.ranks)
						root[0] = tensor.FullBox(tc.global)
					}
					p, err := NewPlan(c, Config{Global: tc.global, InBoxes: root, OutBoxes: root, Opts: opts})
					if err != nil {
						c.Fail(err)
					}
					lists, phases = [][]stage{p.stages}, p.CommPhases()
				}
				type mine struct {
					key phaseKey
					rs  *reshapePlan
					web int
				}
				var my []mine
				for li, stages := range lists {
					for si, st := range stages {
						if st.kind != stageReshape || st.rs.group == nil {
							continue
						}
						rs := st.rs
						// The R2C input reshape — first forward, last reversed — moves reals.
						realAt := 0
						if li == 1 {
							realAt = len(stages) - 1
						}
						web := 16
						if tc.real && si == realAt {
							web = 8
						}
						var row []mpisim.Flow
						for k, gi := range rs.sendPeers {
							if k != rs.selfSend {
								row = append(row, mpisim.Flow{Dst: gi, Bytes: rs.sends.at(k).Volume() * web})
							}
						}
						key := phaseKey{li, si, rs.group.WorldRank(0)}
						mu.Lock()
						if rows[key] == nil {
							rows[key] = make([][]mpisim.Flow, rs.group.Size())
							picked[key] = map[mpisim.Algo]bool{}
						}
						rows[key][rs.myGroupRank] = row
						mu.Unlock()
						my = append(my, mine{key, rs, web})
					}
				}
				c.Barrier() // every row is in
				phase := 0
				for _, m := range my {
					g := m.rs.group
					nodes := map[int]bool{}
					for r := 0; r < g.Size(); r++ {
						nodes[c.Topo().Node(g.WorldRank(r))] = true
					}
					cands := []mpisim.Algo{mpisim.AlgoLinear, mpisim.AlgoRing, mpisim.AlgoPairwise, mpisim.AlgoBruck}
					if len(nodes) > 1 {
						cands = append(cands, mpisim.AlgoNodeAware)
					}
					mu.Lock()
					matrix := rows[m.key]
					mu.Unlock()
					want, wt := cands[0], g.PriceAlltoallv(matrix, cands[0])
					for _, a := range cands[1:] {
						if pt := g.PriceAlltoallv(matrix, a); pt < wt {
							want, wt = a, pt
						}
					}
					f := m.rs.resolved(opts, m.web, 1)
					if f.algo != want {
						t.Errorf("rank %d %s: resolved %v, arg-min of PriceAlltoallv is %v (%.3f µs)",
							c.Rank(), m.rs.label, f.algo, want, wt*1e6)
					}
					mu.Lock()
					picked[m.key][f.algo] = true
					sawChunks = sawChunks || f.chunks > 1
					mu.Unlock()
					if tc.real {
						// The stage lists mirror each other: stage si of one is
						// stage len-1-si of the other, same pair boxes, same width.
						other := lists[1-m.key.list][len(lists[0])-1-m.key.stage].rs
						if o := other.resolved(opts, m.web, 1); o.chunks != f.chunks || o.overlap != f.overlap {
							t.Errorf("rank %d %s: (chunks, overlap) = (%d, %v), its mirror %s has (%d, %v)",
								c.Rank(), m.rs.label, f.chunks, f.overlap, other.label, o.chunks, o.overlap)
						}
						continue
					}
					for phases[phase].Label != m.rs.label {
						phase++
					}
					if got := phases[phase].Algo; got != collAlgoOf(want) {
						t.Errorf("rank %d %s: CommPhases reports %v, want %v", c.Rank(), m.rs.label, got, want)
					}
				}
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if len(picked) == 0 {
				t.Fatal("no reshape was checked")
			}
			for key, algos := range picked {
				if len(algos) != 1 {
					t.Errorf("%v: members of one group resolved different schedules: %v", key, algos)
				}
			}
			if tc.chunked && !sawChunks {
				t.Error("no reshape auto-chunked; the case does not exercise reversed chunking")
			}
		})
	}
}
