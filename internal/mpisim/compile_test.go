package mpisim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// compiledSchedules is every schedule a program is compiled for, the padded
// MPI_Alltoall walk included.
func compiledSchedules() []CollectiveAlgo {
	return []CollectiveAlgo{linearAlgo{}, linearAlgo{padded: true}, pairwiseAlgo{}, ringAlgo{}, bruckAlgo{}, nodeAwareAlgo{}}
}

// randomRows is a sparse non-uniform exchange among the first talk of size
// ranks: about a third of the pairs carry nothing, the rest 1–4096 complex
// elements; rank quiet (if ≥ 0) neither sends nor receives.
func randomRows(rng *rand.Rand, size, talk, quiet int) [][]Flow {
	rows := make([][]Flow, size)
	for r := range talk {
		for d := range talk {
			if d != r && r != quiet && d != quiet && rng.Intn(3) > 0 {
				rows[r] = append(rows[r], Flow{Dst: d, Bytes: 16 * (1 + rng.Intn(4096))})
			}
		}
	}
	return rows
}

// tableIIIRows is the exchange of the 768-GPU Table III reshape from boxes
// from to boxes to of the 512³ grid, in complex128 bytes: row r lists the
// overlaps of r's box with every other rank's, ascending by destination.
func tableIIIRows(from, to tensor.ProcGrid) (rows [][]Flow, self []int) {
	global := [3]int{512, 512, 512}
	src, dst := from.Decompose(global), to.Decompose(global)
	rows, self = make([][]Flow, len(src)), make([]int, len(src))
	for r, b := range src {
		for d, c := range dst {
			switch by := tensor.Intersect(b, c).Volume() * 16; {
			case d == r:
				self[r] = by
			case by > 0:
				rows[r] = append(rows[r], Flow{Dst: d, Bytes: by})
			}
		}
	}
	return rows, self
}

// The 768-GPU row of Table III: 8×8×12 bricks in and out, a 24×32 pencil grid.
var (
	tableIIIBricks  = tensor.NewProcGrid(8, 8, 12)
	tableIIIPencilX = tensor.PencilGrid(0, 24, 32)
	tableIIIPencilY = tensor.PencilGrid(1, 24, 32)
	tableIIIPencilZ = tensor.PencilGrid(2, 24, 32)
)

// compileCase is one exchange a schedule is compiled for.
type compileCase struct {
	name  string
	world int // world size
	place topo.Placement
	ranks []int // the exchange's world ranks, by exchange rank
	rows  [][]Flow
	dev   func(r int) bool // Member.Dev
}

func compileCases() []compileCase {
	rng := rand.New(rand.NewSource(38))
	seq := func(lo, n int) []int {
		rs := make([]int, n)
		for i := range rs {
			rs[i] = lo + i
		}
		return rs
	}
	gpuAware := func(int) bool { return true }
	staged := func(int) bool { return false }
	mixed := func(r int) bool { return r%3 != 1 }
	tableIII, _ := tableIIIRows(tableIIIBricks, tableIIIPencilX)
	return []compileCase{
		{"single-node/5", 5, topo.Block(), seq(0, 5), randomRows(rng, 5, 5, -1), gpuAware},
		{"multi-node/12", 12, topo.Block(), seq(0, 12), randomRows(rng, 12, 12, -1), gpuAware},
		{"ragged/14", 14, topo.Block(), seq(0, 14), randomRows(rng, 14, 14, -1), gpuAware},
		{"ragged-staged/14", 14, topo.Block(), seq(0, 14), randomRows(rng, 14, 14, -1), staged},
		{"ragged-mixed/14", 14, topo.Block(), seq(0, 14), randomRows(rng, 14, 14, -1), mixed},
		{"round-robin/14", 14, topo.RoundRobin(), seq(0, 14), randomRows(rng, 14, 14, -1), gpuAware},
		{"inactive/12-of-16", 16, topo.Block(), seq(0, 16), randomRows(rng, 16, 12, 7), gpuAware},
		{"subgroup/9-of-24", 24, topo.Block(), []int{3, 4, 5, 6, 7, 8, 9, 10, 20}, randomRows(rng, 9, 9, -1), staged},
		{"one-rank", 6, topo.Block(), []int{2}, [][]Flow{nil}, gpuAware},
		{"tableIII/768", 768, topo.Block(), seq(0, 768), tableIII, gpuAware},
	}
}

// exchange builds the case's Exchange.
func (tc compileCase) exchange(t testing.TB) *Exchange {
	t.Helper()
	m := machine.Summit()
	sys, err := topo.New(m, tc.world, tc.place)
	if err != nil {
		t.Fatal(err)
	}
	ex := &Exchange{Size: len(tc.ranks), Members: make([]Member, len(tc.ranks)), Topo: sys, M: m}
	for r, w := range tc.ranks {
		ex.Members[r].World, ex.Members[r].Dev = w, tc.dev(r)
	}
	for r, row := range tc.rows {
		ex.Members[r].Flows = row
		for _, f := range row {
			ex.Members[r].Active, ex.Members[f.Dst].Active = true, true
			ex.pad = max(ex.pad, f.Bytes)
		}
	}
	return ex
}

// TestCompiledSchedulesMatchDirect: every schedule compiled once replays the
// direct schedule bit for bit, call after call. Each exchange — one node,
// several, a ragged last node, round-robin placement, silent ranks, a
// subgroup of a larger world, one rank, the 768-GPU Table III brick→pencil
// reshape; GPU-aware, staged and mixed buffers — is compiled once and run on
// four different per-call halves: all ranks at zero and healthy, then skewed
// starts with a few degraded ranks.
func TestCompiledSchedulesMatchDirect(t *testing.T) {
	for _, tc := range compileCases() {
		ex := tc.exchange(t)
		rng := rand.New(rand.NewSource(int64(len(tc.name))))
		for _, impl := range compiledSchedules() {
			prog := impl.compile(ex)
			for call := range 4 {
				start, factor := make([]float64, ex.Size), make([]float64, ex.Size)
				for r := range start {
					factor[r] = 1
					if call > 0 {
						start[r] = float64(rng.Intn(5000)) * 1e-8
						if rng.Intn(4) == 0 {
							factor[r] = degrade(1 + 3*rng.Float64())
						}
					}
				}
				want := direct(impl, ex, start, factor)
				comp, tmp := make([]float64, ex.Size), make([]float64, ex.Size)
				prog.run(start, factor, comp, tmp)
				for r := range comp {
					if math.Float64bits(comp[r]) != math.Float64bits(want[r]) {
						t.Fatalf("%s/%T%+v call %d: rank %d completes at %.17g s, the direct schedule at %.17g s",
							tc.name, impl, impl, call, r, comp[r], want[r])
					}
				}
			}
			if !raceEnabled {
				start, factor, comp, tmp := make([]float64, ex.Size), make([]float64, ex.Size), make([]float64, ex.Size), make([]float64, ex.Size)
				if n := testing.AllocsPerRun(3, func() { clear(tmp); prog.run(start, factor, comp, tmp) }); n != 0 {
					t.Errorf("%s/%T%+v: a run allocates %v times", tc.name, impl, impl, n)
				}
			}
		}
	}
}

// oracleAlgo prices with the direct form of a schedule: its program keeps a
// copy of the exchange and hands it to direct on every run.
type oracleAlgo struct{ impl CollectiveAlgo }

func (o oracleAlgo) Synchronized() bool { return o.impl.Synchronized() }

func (o oracleAlgo) compile(ex *Exchange) program {
	cp := *ex
	cp.Members = append([]Member(nil), ex.Members...)
	return oracleProgram{o.impl, &cp}
}

type oracleProgram struct {
	impl CollectiveAlgo
	ex   *Exchange
}

func (p oracleProgram) run(start, factor, comp, _ []float64) {
	copy(comp, direct(p.impl, p.ex, start, factor))
}

// TestCompiledScheduleCacheIdentity: a compiled schedule belongs to one
// communicator, one pattern, one schedule and one buffer location. On an
// 18-rank world (three nodes of six), two communicators of nine ranks — one
// six plus three, the other three plus six — exchange the same *Pattern,
// interleaved and concurrently, under every schedule; each also alternates
// device and host send buffers, which a GPU-aware world charges different
// setup overheads for. Ranks enter at skewed clocks and one link degrades. The
// same calls on a second world, priced by the direct schedules on a fresh
// pattern every call (nothing to replay), must land every rank on the same
// clock after every call, on a GPU-aware and on a staged world. A cache keyed
// without the communicator (on the world or on the pattern) or without the
// buffer location fails this.
func TestCompiledScheduleCacheIdentity(t *testing.T) {
	const size, half, calls = 18, 9, 4
	pat := &Pattern{Rows: randomRows(rand.New(rand.NewSource(7)), half, half, -1), Self: make([]int, half)}
	for r := range pat.Self {
		pat.Self[r] = 16 * (r + 1)
	}
	for _, gpuAware := range []bool{true, false} {
		for _, a := range Algos() {
			clocks := func(oracle bool) [][]float64 {
				w := NewWorld(machine.Summit(), size, Options{GPUAware: gpuAware, Faults: &faults.Plan{Events: []faults.Event{
					{Kind: faults.Degrade, Rank: 4, Op: 1, Factor: 3, Count: 2}}}})
				var got [calls][size]float64
				res := w.Run(func(c *Comm) {
					g := c.Split(c.Rank()/half, c.Rank())
					for call := range calls {
						c.Advance(float64((c.Rank()*7+call)%5) * 20e-6)
						loc := machine.Device
						if call%2 == 1 {
							loc = machine.Host
						}
						if oracle {
							fresh := w.Shared(fmt.Sprintf("pattern/%d/%d", c.Rank()/half, call), func() any {
								return &Pattern{Rows: pat.Rows, Self: pat.Self}
							}).(*Pattern)
							g.blockingAlltoall(fresh.summed(), nil, nil, loc, oracleAlgo{scheduleOf(a)}, "MPI_Alltoallv")
						} else {
							g.AlltoallvSparse(pat, nil, nil, loc, a)
						}
						got[call][c.Rank()] = c.Clock()
					}
				})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				out := make([][]float64, calls)
				for i := range got {
					out[i] = got[i][:]
				}
				return out
			}
			cached, want := clocks(false), clocks(true)
			for call := range calls {
				for r := range size {
					if math.Float64bits(cached[call][r]) != math.Float64bits(want[call][r]) {
						t.Fatalf("GPU-aware=%t %v call %d: rank %d at %.17g s, the direct schedule says %.17g s",
							gpuAware, a, call, r, cached[call][r], want[call][r])
					}
				}
			}
		}
	}
}

// BenchmarkPriceScheduled times the two halves of pricing one all-to-all of
// the 768-GPU Table III pencil chain (as exchanges of the whole world), under
// every schedule: compile, once per pattern, and run, once per call — which
// allocates nothing.
func BenchmarkPriceScheduled(b *testing.B) {
	reshapes := []struct {
		name     string
		from, to tensor.ProcGrid
	}{
		{"brick-x", tableIIIBricks, tableIIIPencilX},
		{"x-y", tableIIIPencilX, tableIIIPencilY},
		{"y-z", tableIIIPencilY, tableIIIPencilZ},
		{"z-brick", tableIIIPencilZ, tableIIIBricks},
	}
	world := make([]int, 768)
	for r := range world {
		world[r] = r
	}
	gpuAware := func(int) bool { return true }
	for _, rs := range reshapes {
		rows, _ := tableIIIRows(rs.from, rs.to)
		ex := compileCase{world: 768, place: topo.Block(), ranks: world, rows: rows, dev: gpuAware}.exchange(b)
		for _, a := range Algos() {
			impl := scheduleOf(a)
			b.Run(fmt.Sprintf("%s/%v/compile", rs.name, a), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					impl.compile(ex)
				}
			})
			prog := impl.compile(ex)
			start, factor := make([]float64, ex.Size), make([]float64, ex.Size)
			for r := range start {
				start[r], factor[r] = float64(r%7)*1e-6, 1
			}
			comp, tmp := make([]float64, ex.Size), make([]float64, ex.Size)
			b.Run(fmt.Sprintf("%s/%v/run", rs.name, a), func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					clear(tmp)
					prog.run(start, factor, comp, tmp)
				}
			})
		}
	}
}
