package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Single-copy reshapes (exchange.lends): allocation in steady state, views
// against packing bit for bit, and who owns which array when.

// allocPerTransform runs warm-up and then `pairs` forward+inverse rounds of one
// field per rank on a fresh 32³ world — in place through a Plan, or through a
// RealPlan, each call's output the next call's input — and returns the bytes
// the process allocated per transform over the measured rounds. The collector
// is off while it measures, so no sync.Pool refill lands in the count.
func allocPerTransform(ranks int, opts Options, real, phantom bool, pairs int) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	global := [3]int{32, 32, 32}
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		var pair func()
		if real {
			p, err := NewRealPlan(c, RealConfig{Global: global, Opts: opts})
			must(err)
			rf := NewRealPhantom(p.InBox())
			if !phantom {
				rf = NewRealField(p.InBox())
				fillRealEntry(rf.Data, c.Rank(), 0)
			}
			pair = func() {
				spec, err := p.Forward(rf)
				must(err)
				rf, err = p.Inverse(spec)
				must(err)
			}
		} else {
			p, err := NewPlan(c, Config{Global: global, Opts: opts})
			must(err)
			f := NewPhantom(p.InBox())
			if !phantom {
				f = NewField(p.InBox())
				f.FillRandom(int64(c.Rank()))
			}
			pair = func() {
				must(p.Forward(f))
				must(p.Inverse(f))
			}
		}
		round := func(n int) {
			for i := 0; i < n; i++ {
				pair()
			}
			c.Barrier()
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

// TestReshapeSteadyStateAllocs: a plan with reshapes allocates no payload in
// steady state — a loop that hands each call's output to the next hands the
// plan's arrays back, so every reshape lends and recycles, and the real stages
// of a RealPlan return the arrays they replace. What an exchange allocates for
// bookkeeping (its send list, the rendezvous' receive lists, P2P requests,
// the fields a RealPlan returns) is proportional to the blocks exchanged and
// the same in a phantom run, which is what the payload run is measured
// against: the difference, summed over all ranks, stays under 1/16 of one
// grid per transform. (Before the pool loop closed it was one full grid.)
func TestReshapeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const grid = 32 * 32 * 32 * 16
	check := func(name string, ranks int, opts Options, real bool) {
		payload := allocPerTransform(ranks, opts, real, false, 20) - allocPerTransform(ranks, opts, real, true, 20)
		if payload >= grid/16 {
			t.Errorf("%d ranks, %s: %.0f payload bytes allocated per transform, want < %d (one grid is %d)",
				ranks, name, payload, grid/16, grid)
		}
	}
	for _, ranks := range []int{8, 64} {
		for _, b := range []Backend{BackendAlltoallv, BackendP2P} {
			for _, d := range []Decomposition{DecompPencils, DecompSlabs} {
				check(fmt.Sprintf("%v, %v", d, b), ranks, Options{Decomp: d, Backend: b}, false)
			}
			check(fmt.Sprintf("RealPlan, %v", b), ranks, Options{Backend: b}, true)
		}
	}
}

// viewsCase is one execution path of the views ≡ packing matrix.
type viewsCase struct {
	name  string
	opts  Options
	batch int
	real  bool // RealPlan.ForwardBatch instead of Plan.ForwardBatch
	async bool // Plan.ForwardPipelined
}

// viewsRun is what the final transform of one world left behind, per rank.
type viewsRun struct {
	bits  [][]uint64 // the output arrays, every entry, as IEEE bits
	exec  []ExecInfo
	owned []bool // the plan recognized the input arrays as its own
	lent  []bool // the engine has lent at least once in this world
}

const viewsRanks = 8

var viewsGlobal = [3]int{12, 8, 16}

func fillEntry(data []complex128, rank, entry int) {
	rng := rand.New(rand.NewSource(int64(1000*rank + entry)))
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
}

func fillRealEntry(data []float64, rank, entry int) {
	rng := rand.New(rand.NewSource(int64(1000*rank + entry)))
	for i := range data {
		data[i] = rng.NormFloat64()
	}
}

func bitsOf(fs []*Field) []uint64 {
	var out []uint64
	for _, f := range fs {
		for _, v := range f.Data {
			out = append(out, math.Float64bits(real(v)), math.Float64bits(imag(v)))
		}
	}
	return out
}

// ownsBatch reports whether the engine would start an execution of b owning
// its arrays, and leaves the engine's memory of them as it found it.
func ownsBatch(e *engine, b *batch) bool {
	b.claim(e)
	b.keep(e)
	return b.owned
}

// runViews warms a plan up with one Forward+Inverse pair and then transforms
// the same input forward once more: out of fresh caller arrays (the first
// reshape packs) or, steady, out of the arrays the warm-up left behind,
// refilled in place (every reshape lends). Both sequences issue identical
// virtual operations.
func runViews(tc viewsCase, ic mpisim.IntegrityConfig, steady bool) viewsRun {
	r := viewsRun{bits: make([][]uint64, viewsRanks), exec: make([]ExecInfo, viewsRanks),
		owned: make([]bool, viewsRanks), lent: make([]bool, viewsRanks)}
	w := mpisim.NewWorld(machine.Summit(), viewsRanks, mpisim.Options{GPUAware: true, Integrity: ic})
	w.Run(func(c *mpisim.Comm) {
		me := c.Rank()
		must := func(err error) {
			if err != nil {
				panic(fmt.Sprintf("%s: %v", tc.name, err))
			}
		}
		if tc.real {
			p, err := NewRealPlan(c, RealConfig{Global: viewsGlobal, Opts: tc.opts})
			must(err)
			mk := func() []*RealField {
				rfs := make([]*RealField, tc.batch)
				for i := range rfs {
					rfs[i] = NewRealField(p.InBox())
					fillRealEntry(rfs[i].Data, me, i)
				}
				return rfs
			}
			spec, err := p.ForwardBatch(mk())
			must(err)
			rfs, err := p.InverseBatch(spec)
			must(err)
			if steady {
				for i, rf := range rfs {
					fillRealEntry(rf.Data, me, i)
				}
			} else {
				rfs = mk()
			}
			r.owned[me] = ownsBatch(&p.engine, &batch{reals: rfs, real: true})
			spec, err = p.ForwardBatch(rfs)
			must(err)
			r.bits[me], r.exec[me] = bitsOf(spec), p.lastExec
			r.lent[me] = len(p.rscratch.views)+len(p.cscratch.views) > 0
			return
		}
		p, err := NewPlan(c, Config{Global: viewsGlobal, Opts: tc.opts})
		must(err)
		mk := func() []*Field {
			fs := make([]*Field, tc.batch)
			for i := range fs {
				fs[i] = NewField(p.InBox())
				fillEntry(fs[i].Data, me, i)
			}
			return fs
		}
		forward, inverse := p.ForwardBatch, p.InverseBatch
		if tc.async {
			forward, inverse = p.ForwardPipelined, p.InversePipelined
		}
		fs := mk()
		must(forward(fs))
		must(inverse(fs))
		if steady {
			for i, f := range fs {
				fillEntry(f.Data, me, i)
			}
		} else {
			fs = mk()
		}
		r.owned[me] = ownsBatch(&p.engine, &batch{fields: fs})
		must(forward(fs))
		r.bits[me], r.exec[me] = bitsOf(fs), p.LastExec()
		r.lent[me] = len(p.cscratch.views) > 0
	})
	return r
}

// TestViewsMatchPacking: shipping a view and packing a copy are the same
// exchange. For every backend × {pencils, slabs} × {one chunk, three chunks,
// three overlapped} × batch {1, 3}, the per-entry pipelined path and
// RealPlan, the output of a transform whose input is a fresh caller array
// (its first reshape packs), of the same transform in steady state (all
// views) and of the same transform on a world whose configuration forces
// packing everywhere are equal bit for bit, and the first two cost the same
// virtual time to the last bit of both clocks.
func TestViewsMatchPacking(t *testing.T) {
	var cases []viewsCase
	for _, batch := range []int{1, 3} {
		for _, d := range []Decomposition{DecompPencils, DecompSlabs} {
			for _, b := range []Backend{BackendAlltoallv, BackendAlltoall, BackendAlltoallw, BackendP2P, BackendP2PBlocking} {
				name := fmt.Sprintf("%v/%v/batch%d", b, d, batch)
				cases = append(cases, viewsCase{name: name, opts: Options{Decomp: d, Backend: b}, batch: batch})
				if b != BackendAlltoallv {
					continue
				}
				for _, cc := range []CommConfig{{Chunks: 1}, {Chunks: 3, Overlap: OverlapOff}, {Chunks: 3}} {
					cases = append(cases, viewsCase{name: fmt.Sprintf("%s/chunks%d-overlap-%v", name, cc.Chunks, cc.Overlap),
						opts: Options{Decomp: d, Backend: b, Comm: cc}, batch: batch})
				}
			}
			cases = append(cases, viewsCase{name: fmt.Sprintf("pipelined/%v/batch%d", d, batch),
				opts: Options{Decomp: d, Backend: BackendAlltoallv}, batch: batch, async: true})
		}
		for _, b := range []Backend{BackendAlltoallv, BackendAlltoallw, BackendP2P} {
			cases = append(cases, viewsCase{name: fmt.Sprintf("real/%v/batch%d", b, batch),
				opts: Options{Backend: b}, batch: batch, real: true})
		}
		cases = append(cases, viewsCase{name: fmt.Sprintf("real/alltoallv/chunks3/batch%d", batch),
			opts: Options{Backend: BackendAlltoallv, Comm: CommConfig{Chunks: 3}}, batch: batch, real: true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := runViews(tc, mpisim.IntegrityConfig{}, false)
			steady := runViews(tc, mpisim.IntegrityConfig{}, true)
			packed := runViews(tc, mpisim.IntegrityConfig{Checksums: true}, true)
			for r := 0; r < viewsRanks; r++ {
				// (The race detector makes sync.Pool drop a quarter of what it is
				// given, and with it the plan's memory of some arrays: fewer
				// views, same results.)
				if fresh.owned[r] || !steady.owned[r] && !raceEnabled {
					t.Fatalf("rank %d: plan owns the fresh input: %t, the handed-back input: %t; want false, true", r, fresh.owned[r], steady.owned[r])
				}
				if !steady.lent[r] || packed.lent[r] {
					t.Fatalf("rank %d: lent views in steady state: %t, on a checksummed world: %t; want true, false", r, steady.lent[r], packed.lent[r])
				}
				if len(steady.bits[r]) == 0 {
					t.Fatalf("rank %d: no output", r)
				}
				if !slices.Equal(fresh.bits[r], steady.bits[r]) {
					t.Errorf("rank %d: first reshape packed vs all views: outputs differ", r)
				}
				if !slices.Equal(packed.bits[r], steady.bits[r]) {
					t.Errorf("rank %d: all packed vs all views: outputs differ", r)
				}
				if fresh.exec[r] != steady.exec[r] {
					t.Errorf("rank %d: virtual cost %+v with the first reshape packed, %+v all views", r, fresh.exec[r], steady.exec[r])
				}
			}
		})
	}
}

// TestLendsPredicate: which exchanges ship views is a function of array
// ownership, wire precision, the world's integrity configuration and its fault
// plan — each alone turns lending off. Beside it, a phantom batch's exchanges
// build no block list (isBare) unless the world checksums, carries ABFT sums
// or attaches a fault plan with events; ownership and wire do not matter.
func TestLendsPredicate(t *testing.T) {
	type row struct {
		name    string
		wopts   mpisim.Options
		comm    CommConfig
		phantom bool
		// Whether reshape i of the pipeline below lends when the arrays are
		// plan-owned; a caller's arrays never lend.
		want [3]bool
		// Whether a phantom batch's exchanges build no block list (isBare).
		bare bool
	}
	rows := []row{
		{name: "default", want: [3]bool{true, true, true}, bare: true},
		{name: "phantom", phantom: true, bare: true},
		{name: "fp32 wire compresses the interior reshapes", comm: CommConfig{Wire: WireFp32}, want: [3]bool{true, false, false}, bare: true},
		{name: "checksums", wopts: mpisim.Options{Integrity: mpisim.IntegrityConfig{Checksums: true}}},
		{name: "invariants", wopts: mpisim.Options{Integrity: mpisim.IntegrityConfig{Invariants: true}}},
		{name: "fault plan", wopts: mpisim.Options{Faults: &faults.Plan{Events: []faults.Event{{Kind: faults.Stall, Rank: 1, Op: 1000, Delay: 1}}}}},
		{name: "fault plan without events", wopts: mpisim.Options{Faults: &faults.Plan{Timeout: 1}}, want: [3]bool{true, true, true}, bare: true},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			tc.wopts.GPUAware = true
			w := mpisim.NewWorld(machine.Summit(), 4, tc.wopts)
			w.Run(func(c *mpisim.Comm) {
				// z-pencils in and out: in → x-pencils → y-pencils → z-pencils,
				// the last two reshapes interior.
				in := tensor.PencilGrid(2, 2, 2).Decompose([3]int{8, 8, 8})
				p, err := NewPlan(c, Config{Global: [3]int{8, 8, 8}, InBoxes: in, OutBoxes: in,
					Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, PQ: [2]int{2, 2}, Comm: tc.comm}})
				if err != nil {
					panic(err)
				}
				var got []bool
				for _, st := range p.stages {
					if st.kind != stageReshape {
						continue
					}
					var x exchange[complex128]
					for _, owned := range []bool{false, true} {
						x.arm(&p.engine, st.rs, make([][]complex128, 1), make([][]complex128, 1), tc.phantom, owned, false, onGrid{})
						if !owned && x.view != nil {
							t.Errorf("rank %d: %s lends a caller's array", c.Rank(), st.label)
						}
						if owned {
							got = append(got, x.view != nil)
						}
						if x.bare != (tc.phantom && tc.bare) {
							t.Errorf("rank %d: %s: bare = %t with phantom = %t", c.Rank(), st.label, x.bare, tc.phantom)
						}
					}
					x.arm(&p.engine, st.rs, make([][]complex128, 1), make([][]complex128, 1), true, false, false, onGrid{})
					if x.bare != tc.bare {
						t.Errorf("rank %d: %s: a phantom batch's exchange is bare = %t, want %t", c.Rank(), st.label, x.bare, tc.bare)
					}
				}
				if len(got) != 3 || [3]bool(got) != tc.want {
					t.Errorf("rank %d: plan-owned arrays lend on reshapes %v, want %v", c.Rank(), got, tc.want)
				}
			})
		})
	}
}

// pooled reports whether the array is in the staging pool, and dup whether
// any array is in it twice — the signature of a double recycle, after which
// two plans would be handed the same memory. It drains every class and puts
// everything back. A sync.Pool hands a processor what others left in their
// shared queues but not in their private slots, so the drain sees everything
// only under oneProc; and the race detector's pool drops a quarter of what it
// is given, which can hide a duplicate but never invent one.
func poolState(a *complex128) (pooled, dup bool) {
	seen := map[*complex128]bool{}
	for c := range complexPool.classes {
		class := &complexPool.classes[c]
		var held []*complex128
		for x := class.Get(); x != nil; x = class.Get() {
			id := x.(*complex128)
			pooled = pooled || id == a
			dup = dup || seen[id]
			seen[id] = true
			held = append(held, id)
		}
		for i := len(held) - 1; i >= 0; i-- {
			class.Put(held[i])
		}
	}
	return pooled, dup
}

// oneProc runs the rest of the test on one processor (see poolState).
func oneProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// roundTripOK transforms a fresh random field forward and back through p and
// reports whether it came back (a pool handing one array to two users at once
// would break it on some rank).
func roundTripOK(p *Plan, seed int64) bool {
	f := NewField(p.InBox())
	f.FillRandom(seed)
	want := slices.Clone(f.Data)
	for i := 0; i < 3; i++ {
		if p.Forward(f) != nil || p.Inverse(f) != nil {
			return false
		}
	}
	return maxAbsDiff(f.Data, want) < tol
}

// TestCopiedFieldIsNotRecycledTwice: the plan remembers the arrays it left in
// the caller's fields and consumes each once. A copy of the Field value made
// before the original's next transform still points at the old array; by the
// time the copy is transformed that array has been lent, pooled and perhaps
// drawn again by someone else — the copy's output is garbage, as the contract
// says — but the plan reads it like any caller's array and never pools it a
// second time, so no two users are ever handed the same memory.
func TestCopiedFieldIsNotRecycledTwice(t *testing.T) {
	oneProc(t)
	w := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
	global := [3]int{16, 16, 16}
	w.Run(func(c *mpisim.Comm) {
		// Brick input: the first stage is a reshape, so the stale array is only
		// ever read.
		p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		third, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompSlabs, Backend: BackendP2P}})
		if err != nil {
			panic(err)
		}
		for round := 0; round < 4; round++ {
			f := NewField(p.InBox())
			f.FillRandom(int64(c.Rank()))
			if err := p.Forward(f); err != nil {
				panic(err)
			}
			g := *f // a second handle on the array Forward left in f
			if err := p.Inverse(f); err != nil {
				panic(err)
			}
			stale := arrayOf(g.Data)
			c.Barrier()
			// The pool hands out the array returned last. Spares on top keep the
			// stale arrays below from being drawn — and written — by one rank
			// while another still reads its copy's: that would be the caller's
			// race, not the plan's, but it would trip the detector all the same.
			for i := 0; i < 8; i++ {
				putBuf(make([]complex128, len(g.Data)))
			}
			c.Barrier()
			one := batch{fields: []*Field{&g}}
			if one.claim(&p.engine); one.owned && stale != arrayOf(f.Data) {
				t.Errorf("rank %d, round %d: the plan claims the copy's array, which it has recycled already", c.Rank(), round)
			}
			if err := p.Inverse(&g); err != nil {
				t.Errorf("rank %d: transforming the copy: %v", c.Rank(), err)
			}
			c.Barrier()
			if _, dup := poolState(nil); dup {
				t.Errorf("rank %d, round %d: an array sits in the staging pool twice", c.Rank(), round)
			}
			c.Barrier()
			if !roundTripOK(third, int64(100+c.Rank())) {
				t.Errorf("rank %d, round %d: a third plan's round trip is wrong after the copy was transformed", c.Rank(), round)
			}
			if !roundTripOK(p, int64(200+c.Rank())) {
				t.Errorf("rank %d, round %d: the plan's own round trip is wrong after the copy was transformed", c.Rank(), round)
			}
		}
	})
}

// TestCallerArrayIsNeverLent: an array the caller installs in a field is read
// before the call returns and never again, never written by a peer, and never
// pooled — on a single-reshape plan the array goes straight into the only
// exchange, which therefore must pack. Every rank scribbles over its array the
// moment Forward returns, while its peers may still be unpacking; the results
// must not notice (and the race detector must stay quiet).
func TestCallerArrayIsNeverLent(t *testing.T) {
	oneProc(t)
	global := [3]int{16, 16, 16}
	// Slabs in, slabs out: slab-0 → slab-1 is the plan's only reshape.
	cfg := Config{Global: global, Opts: Options{Decomp: DecompSlabs, Backend: BackendAlltoallv},
		InBoxes: tensor.SlabGrid(0, 8).Decompose(global), OutBoxes: tensor.SlabGrid(1, 8).Decompose(global)}
	want, _ := runDistributed(t, machine.Summit(), 8, global, cfg, 5, fft.Forward, true)
	ref := globalSignal(global, 5)
	w := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
	outs, boxes := make([][]complex128, 8), make([]tensor.Box3, 8)
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		if p.Exchanges() != 1 {
			panic(fmt.Sprintf("slab plan has %d reshapes, want 1", p.Exchanges()))
		}
		f := &Field{Box: p.InBox()}
		// Twice: the second call runs on a plan that has arrays of its own to
		// tell the caller's from.
		for round := 0; round < 2; round++ {
			mine := scatter(ref, global, p.InBox())
			f.Box, f.Data = p.InBox(), mine
			if err := p.Forward(f); err != nil {
				panic(err)
			}
			for i := range mine {
				mine[i] = complex(math.NaN(), math.Inf(1))
			}
			if arrayOf(f.Data) == arrayOf(mine) {
				t.Errorf("rank %d: Forward left the caller's array in the field", c.Rank())
			}
			c.Barrier()
			if pooled, _ := poolState(arrayOf(mine)); pooled {
				t.Errorf("rank %d: the caller's array is in the staging pool", c.Rank())
			}
		}
		outs[c.Rank()], boxes[c.Rank()] = f.Data, f.Box
	})
	got := gather(global, boxes, outs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %v, want %v: the scribble on a caller's array reached the transform", i, got[i], want[i])
		}
	}
}

// countdownCtx is a context that expires on its n-th poll: the runner polls
// once per stage and chunk boundary, so n places the cancellation.
type countdownCtx struct {
	context.Context
	polls, n int
	done     chan struct{}
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.n {
		close(c.done)
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelWithViewsInFlight: one rank's context expires at every stage and
// chunk boundary of a steady-state (all views) transform in turn. The world
// fails with the context's error everywhere; views already deposited may
// never be read, and arrays other ranks are still copying out of may be
// pooled after their owner has returned — so the failed fields give their
// arrays up, the pool stays consistent, and a fresh world computes correctly
// right after.
func TestCancelWithViewsInFlight(t *testing.T) {
	oneProc(t)
	global := [3]int{16, 16, 16}
	opts := Options{Decomp: DecompPencils, Backend: BackendAlltoallv, Comm: CommConfig{Chunks: 2}}
	for n := 1; ; n++ {
		fired := false
		w := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: opts})
			if err != nil {
				panic(err)
			}
			f := NewField(p.InBox())
			f.FillRandom(int64(c.Rank()))
			if p.Forward(f) != nil || p.Inverse(f) != nil {
				panic("warm-up failed")
			}
			c.Barrier()
			lentArray := arrayOf(f.Data)
			var ctx context.Context = context.Background()
			if c.Rank() == 3 {
				ctx = &countdownCtx{Context: ctx, n: n, done: make(chan struct{})}
			}
			err = p.ForwardCtx(ctx, f)
			if cd, ok := ctx.(*countdownCtx); ok && cd.polls >= n {
				fired = true
			}
			if err == nil {
				return
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("poll %d, rank %d: err = %v, want context.Canceled", n, c.Rank(), err)
			}
			// (Not under the race detector: there sync.Pool forgets at random,
			// and a plan that did not recognize the array packed it and left it.)
			if !raceEnabled && f.Data != nil && arrayOf(f.Data) == lentArray {
				t.Errorf("poll %d, rank %d: the failed field still holds the array the plan lent out", n, c.Rank())
			}
		})
		if !fired {
			if res.Err != nil {
				t.Fatalf("poll %d never fired but the world failed: %v", n, res.Err)
			}
			if n < 8 {
				t.Fatalf("the transform polled its context only %d times; the chunked pencil pipeline has more boundaries", n-1)
			}
			t.Logf("cancelled at each of %d boundaries", n-1)
			break
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("poll %d: world error = %v, want context.Canceled", n, res.Err)
		}
		if _, dup := poolState(nil); dup {
			t.Fatalf("poll %d: an array sits in the staging pool twice", n)
		}
		fresh := mpisim.NewWorld(machine.Summit(), 8, mpisim.Options{GPUAware: true})
		fresh.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: opts})
			if err != nil {
				panic(err)
			}
			if !roundTripOK(p, int64(n*10+c.Rank())) {
				t.Errorf("poll %d, rank %d: round trip on a fresh world is wrong after the cancelled transform", n, c.Rank())
			}
		})
	}
}
