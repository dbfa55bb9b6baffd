package core

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Global batches (Plan.ForwardGlobal): the exchange reads the callers'
// whole-grid arrays at the input reshape and writes them at the output
// reshape, so no scatter precedes the call and no gather follows it.

// globalCase is one plan configuration of the global ≡ scatter/gather matrix.
type globalCase struct {
	name  string
	ranks int
	batch int
	cfg   func(c *mpisim.Comm) Config // built on every rank
	world mpisim.Options
}

var globalGrid = [3]int{12, 10, 8}

// runFieldsPath is the path ForwardGlobal replaces: every rank scatters its
// input box out of the arrays, runs the field batch, and gathers its output
// box back into them. It returns the arrays and every rank's LastExec.
func runFieldsPath(tc globalCase, in [][]complex128, dir fft.Direction) ([][]complex128, []ExecInfo) {
	out := cloneAll(in)
	execs := make([]ExecInfo, tc.ranks)
	w := mpisim.NewWorld(machine.Summit(), tc.ranks, tc.world)
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, tc.cfg(c))
		if err != nil {
			panic(err)
		}
		fs := make([]*Field, len(in))
		for i, d := range in {
			fs[i] = &Field{Box: p.InBox(), Data: scatter(d, globalGrid, p.InBox())}
		}
		if err := p.execute(fs, dir); err != nil {
			panic(err)
		}
		for i, f := range fs {
			tensor.Unpack(out[i], tensor.FullBox(globalGrid), f.Box, f.Data)
		}
		execs[c.Rank()] = p.LastExec()
	})
	return out, execs
}

// runGlobalPath transforms copies of the arrays with ForwardGlobal or
// InverseGlobal, every rank handed the same copies.
func runGlobalPath(tc globalCase, in [][]complex128, dir fft.Direction) ([][]complex128, []ExecInfo) {
	out := cloneAll(in)
	execs := make([]ExecInfo, tc.ranks)
	w := mpisim.NewWorld(machine.Summit(), tc.ranks, tc.world)
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, tc.cfg(c))
		if err != nil {
			panic(err)
		}
		run := p.ForwardGlobal
		if dir == fft.Inverse {
			run = p.InverseGlobal
		}
		if err := run(out); err != nil {
			panic(err)
		}
		execs[c.Rank()] = p.LastExec()
	})
	return out, execs
}

func cloneAll(in [][]complex128) [][]complex128 {
	out := make([][]complex128, len(in))
	for i, d := range in {
		out[i] = slices.Clone(d)
	}
	return out
}

func arraysBits(ds [][]complex128) []uint64 {
	fs := make([]*Field, len(ds))
	for i, d := range ds {
		fs[i] = &Field{Data: d}
	}
	return bitsOf(fs)
}

// globalCases is {1, 2, 4, 8, 24} ranks × {slabs, pencils, bricks} × batch
// {1, 3} × {fp64 wire (in place), fp32 wire, integrity on}, plus, at fp64:
// pencils in and out (no edge reshape), chunked overlapped exchanges, grid
// shrinking (ranks outside a reshape's group), the transposed mode, the
// Alltoall, Alltoallw, P2P and blocking P2P backends — all in place — and
// checkpoints (out of place: each boundary cut out of the whole grid).
func globalCases() []globalCase {
	var cases []globalCase
	opts := func(o Options) func(*mpisim.Comm) Config {
		return func(*mpisim.Comm) Config { return Config{Global: globalGrid, Opts: o} }
	}
	integ := mpisim.Options{GPUAware: true, Integrity: mpisim.IntegrityConfig{Checksums: true, Invariants: true}}
	for _, ranks := range []int{1, 2, 4, 8, 24} {
		for _, batch := range []int{1, 3} {
			for _, d := range []Decomposition{DecompSlabs, DecompPencils, DecompBricks} {
				cases = append(cases,
					globalCase{name: "fp64", ranks: ranks, batch: batch, cfg: opts(Options{Decomp: d}), world: mpisim.Options{GPUAware: true}},
					globalCase{name: "fp32-wire", ranks: ranks, batch: batch, cfg: opts(Options{Decomp: d, Comm: CommConfig{Wire: WireFp32}}), world: mpisim.Options{GPUAware: true}},
					globalCase{name: "integrity", ranks: ranks, batch: batch, cfg: opts(Options{Decomp: d}), world: integ})
				for i := len(cases) - 3; i < len(cases); i++ {
					cases[i].name = fmt.Sprintf("r%d/%v/batch%d/%s", ranks, d, batch, cases[i].name)
				}
			}
			p, q := tensor.Square2D(ranks)
			pencilIO := func(*mpisim.Comm) Config {
				return Config{Global: globalGrid, Opts: Options{Decomp: DecompPencils, PQ: [2]int{p, q}},
					InBoxes:  tensor.PencilGrid(0, p, q).Decompose(globalGrid),
					OutBoxes: tensor.PencilGrid(2, p, q).Decompose(globalGrid)}
			}
			store := NewCheckpointStore()
			extra := []globalCase{
				{name: "pencil-io", cfg: pencilIO},
				{name: "chunks3-overlap", cfg: opts(Options{Decomp: DecompPencils, Comm: CommConfig{Chunks: 3}})},
				{name: "shrink", cfg: opts(Options{Decomp: DecompPencils, ShrinkThreshold: 200})},
				{name: "contiguous", cfg: opts(Options{Decomp: DecompPencils, Contiguous: true})},
				{name: "alltoall", cfg: opts(Options{Decomp: DecompBricks, Backend: BackendAlltoall})},
				{name: "alltoallw", cfg: opts(Options{Decomp: DecompSlabs, Backend: BackendAlltoallw})},
				{name: "p2p", cfg: opts(Options{Decomp: DecompSlabs, Backend: BackendP2P})},
				{name: "p2p-blocking", cfg: opts(Options{Decomp: DecompPencils, Backend: BackendP2PBlocking})},
				{name: "checkpoints", cfg: opts(Options{Decomp: DecompBricks, Checkpoints: store})},
			}
			for _, tc := range extra {
				tc.name = fmt.Sprintf("r%d/batch%d/%s", ranks, batch, tc.name)
				tc.ranks, tc.batch, tc.world = ranks, batch, mpisim.Options{GPUAware: true}
				cases = append(cases, tc)
			}
		}
	}
	return cases
}

// TestGlobalMatchesScatterGather: ForwardGlobal and InverseGlobal produce the
// bits of scatter → ForwardBatch/InverseBatch → gather and cost the same
// virtual interval on every rank. Under -race the 8- and 24-rank rows run:
// every rank reads and writes the callers' arrays, and only the exchanges
// order one owner's stage of a box before the next owner's.
func TestGlobalMatchesScatterGather(t *testing.T) {
	for _, tc := range globalCases() {
		if raceEnabled && tc.ranks < 8 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			in := make([][]complex128, tc.batch)
			for i := range in {
				in[i] = globalSignal(globalGrid, int64(17*i+tc.ranks))
			}
			for _, dir := range []fft.Direction{fft.Forward, fft.Inverse} {
				want, wantExec := runFieldsPath(tc, in, dir)
				got, gotExec := runGlobalPath(tc, in, dir)
				if !slices.Equal(arraysBits(got), arraysBits(want)) {
					t.Fatalf("direction %v: global output differs from scatter/gather", dir)
				}
				for r := range gotExec {
					if gotExec[r] != wantExec[r] {
						t.Fatalf("direction %v, rank %d: virtual interval %+v, scatter/gather %+v", dir, r, gotExec[r], wantExec[r])
					}
				}
				in = want
			}
		})
	}
}

// TestGlobalRejectsBadBatch: an entry of the wrong length or two entries that
// share memory fail the call with ErrBadConfig on every rank before anything
// is exchanged — no virtual time passes and no array is written — and the
// plan runs the next (valid) batch normally.
func TestGlobalRejectsBadBatch(t *testing.T) {
	n := globalGrid[0] * globalGrid[1] * globalGrid[2]
	a, b := globalSignal(globalGrid, 1), globalSignal(globalGrid, 2)
	twice := make([]complex128, n+1)
	rows := []struct {
		name  string
		datas [][]complex128
	}{
		{"short entry", [][]complex128{a, b[:n-1]}},
		{"long entry", [][]complex128{twice}},
		{"same array twice", [][]complex128{a, b, a}},
		{"overlapping windows", [][]complex128{twice[:n], twice[1:]}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := arraysBits(row.datas)
			valid := [][]complex128{globalSignal(globalGrid, 3), globalSignal(globalGrid, 4)}
			errs := make([]error, 8)
			execs := make([]ExecInfo, 8)
			w := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
			res := w.Run(func(c *mpisim.Comm) {
				p, err := NewPlan(c, Config{Global: globalGrid, Opts: Options{Decomp: DecompPencils}})
				if err != nil {
					panic(err)
				}
				errs[c.Rank()] = p.ForwardGlobal(row.datas)
				execs[c.Rank()] = p.LastExec()
				if !slices.Equal(arraysBits(row.datas), before) {
					t.Errorf("rank %d: a rejected batch wrote its arrays", c.Rank())
				}
				if err := p.ForwardGlobal(valid); err != nil {
					t.Errorf("rank %d: valid batch after a rejected one: %v", c.Rank(), err)
				}
			})
			if res.Err != nil {
				t.Fatalf("world failed: %v", res.Err)
			}
			for r, err := range errs {
				if !errors.Is(err, ErrBadConfig) {
					t.Errorf("rank %d: err = %v, want ErrBadConfig", r, err)
				}
				if err.Error() != errs[0].Error() {
					t.Errorf("rank %d: %q, rank 0: %q", r, err, errs[0])
				}
				if execs[r].End != execs[r].Start {
					t.Errorf("rank %d: a rejected batch cost %g virtual seconds", r, execs[r].End-execs[r].Start)
				}
			}
		})
	}
}

// globalAllocPerTransform is allocPerTransform for a loop of ForwardGlobal /
// InverseGlobal pairs on one shared whole-grid array.
func globalAllocPerTransform(ranks int, opts Options, pairs int) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	global := [3]int{32, 32, 32}
	datas := [][]complex128{globalSignal(global, 3)}
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: opts})
		if err != nil {
			panic(err)
		}
		round := func(n int) {
			for i := 0; i < n; i++ {
				if p.ForwardGlobal(datas) != nil || p.InverseGlobal(datas) != nil {
					panic("global round trip failed")
				}
				// Every rank is done with the arrays before any starts the next
				// call — the contract of a global batch.
				c.Barrier()
			}
		}
		round(3)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		round(pairs)
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(2*pairs)
}

// TestGlobalSteadyStateAllocs: an 8-rank 32³ ForwardGlobal/InverseGlobal loop
// allocates no payload after warm-up — it runs in the callers' array and its
// reshapes move nothing. Measured, like
// TestReshapeSteadyStateAllocs, against a phantom Forward/Inverse loop (the
// exchange vectors alone); what is left stays under 1/16 of one grid.
func TestGlobalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const grid = 32 * 32 * 32 * 16
	for _, d := range []Decomposition{DecompPencils, DecompSlabs} {
		opts := Options{Decomp: d}
		payload := globalAllocPerTransform(8, opts, 20) - allocPerTransform(8, opts, false, true, 20)
		t.Logf("%v: %.0f payload bytes per transform", d, payload)
		if payload >= grid/16 {
			t.Errorf("%v: %.0f payload bytes allocated per transform, want < %d (one grid is %d)", d, payload, grid/16, grid)
		}
	}
}

// TestInPlaceGlobalMovesNothing: a global batch whose every reshape would lend
// runs in the callers' arrays — it draws no array from the staging pool on any
// backend, and on the collective ones builds no exchange vector either (its
// reshapes run bare, as a phantom batch's do). The fp32-wire row runs out of
// place and must draw arrays, or the count could not see one. Run like
// TestBareExchangesMoveNoBlockLists: on one processor with the collector off,
// so every array or list drawn would still be in its pool afterwards.
func TestInPlaceGlobalMovesNothing(t *testing.T) {
	oneProc(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pencilV := Options{Decomp: DecompPencils, Backend: BackendAlltoallv}
	chunked := pencilV
	chunked.Comm.Chunks = 3
	fp32 := pencilV
	fp32.Comm.Wire = WireFp32
	rows := []struct {
		name    string
		opts    Options
		inPlace bool
		lists   bool // the backend posts size-only blocks
	}{
		{"alltoallv", pencilV, true, false},
		{"alltoallv/chunks3", chunked, true, false},
		{"alltoall/bricks", Options{Decomp: DecompBricks, Backend: BackendAlltoall}, true, false},
		{"alltoallw/slabs", Options{Decomp: DecompSlabs, Backend: BackendAlltoallw}, true, false},
		{"p2p", Options{Decomp: DecompPencils, Backend: BackendP2P}, true, true},
		{"alltoallv/fp32-wire", fp32, false, false},
	}
	drain := func(classes []sync.Pool) int {
		n := 0
		for c := range classes {
			for x := classes[c].Get(); x != nil; x = classes[c].Get() {
				n++
			}
		}
		return n
	}
	global := [3]int{32, 32, 32}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			arrays, lists := 0, 0
			datas := [][]complex128{globalSignal(global, 6), globalSignal(global, 7)}
			w := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
			res := w.Run(func(c *mpisim.Comm) {
				p, err := NewPlan(c, Config{Global: global, Opts: tc.opts})
				if err != nil {
					c.Fail(err)
				}
				pair := func() {
					if err := p.ForwardGlobal(datas); err != nil {
						c.Fail(err)
					}
					if err := p.InverseGlobal(datas); err != nil {
						c.Fail(err)
					}
					c.Barrier()
				}
				pair() // resolves every exchange
				if c.Rank() == 0 {
					drain(complexPool.classes[:])
					drain(blockPool.classes[:])
				}
				c.Barrier()
				pair()
				if c.Rank() == 0 {
					arrays, lists = drain(complexPool.classes[:]), drain(blockPool.classes[:])
				}
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if tc.inPlace && arrays > 0 {
				t.Errorf("an in-place forward+inverse pair drew %d arrays from the staging pool, want 0", arrays)
			}
			if !tc.inPlace && arrays == 0 {
				t.Errorf("an out-of-place forward+inverse pair drew no array from the staging pool")
			}
			if tc.inPlace && !tc.lists && lists > 0 {
				t.Errorf("an in-place forward+inverse pair drew %d exchange vectors from blockPool, want 0", lists)
			}
		})
	}
}

// pooledBytes is what the staging pool holds, counted by draining every class
// and putting it all back (see poolState for why under oneProc).
func pooledBytes() int {
	n := 0
	for c := range complexPool.classes {
		class := &complexPool.classes[c]
		var held []*complex128
		for x := class.Get(); x != nil; x = class.Get() {
			held = append(held, x.(*complex128))
		}
		n += len(held) * 16 << c
		for _, x := range held {
			class.Put(x)
		}
	}
	return n
}

// TestIdleWorldGivesPoolBack: the staging pool is a cache, not a reservation.
// After a world has transformed and gone idle — its plans still held, as a
// server's plan cache holds them — two collections take the pooled arrays, and
// the heap shrinks by at least their bytes. The fp32 wire keeps the global
// batch out of place, so it draws from the pool (one run in place draws
// nothing).
func TestIdleWorldGivesPoolBack(t *testing.T) {
	oneProc(t)
	global := [3]int{32, 32, 32}
	plans := make([]*Plan, 8)
	datas := [][]complex128{globalSignal(global, 4), globalSignal(global, 5)}
	w := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils, Comm: CommConfig{Wire: WireFp32}}})
		if err != nil {
			panic(err)
		}
		for i := 0; i < 3; i++ {
			if p.ForwardGlobal(datas) != nil || p.InverseGlobal(datas) != nil {
				panic("global round trip failed")
			}
			c.Barrier()
		}
		plans[c.Rank()] = p
	})
	runtime.GC() // the world's garbage goes; the pool moves to its victim cache
	pooled := pooledBytes()
	if grid := 16 * global[0] * global[1] * global[2]; pooled < grid {
		t.Fatalf("the pool holds %d bytes after the transforms, want at least one grid (%d)", pooled, grid)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if left := pooledBytes(); left != 0 {
		t.Errorf("the pool still holds %d bytes after two collections", left)
	}
	if drop := int64(before.HeapAlloc) - int64(after.HeapAlloc); drop < int64(pooled) {
		t.Errorf("two collections on an idle world freed %d bytes, the pool held %d", drop, pooled)
	}
	runtime.KeepAlive(plans)
	runtime.KeepAlive(w)
}
