package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

const tol = 1e-8

// globalSignal builds the reference global array for a given seed.
func globalSignal(global [3]int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, global[0]*global[1]*global[2])
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// scatter extracts the local share of the global array for a box.
func scatter(globalData []complex128, global [3]int, b tensor.Box3) []complex128 {
	full := tensor.FullBox(global)
	out := make([]complex128, b.Volume())
	tensor.Pack(globalData, full, b, out)
	return out
}

// gather reassembles a global array from per-rank fields.
func gather(global [3]int, boxes []tensor.Box3, datas [][]complex128) []complex128 {
	full := tensor.FullBox(global)
	out := make([]complex128, global[0]*global[1]*global[2])
	for r, b := range boxes {
		if b.Volume() > 0 {
			tensor.Unpack(out, full, b, datas[r])
		}
	}
	return out
}

// runDistributed executes one distributed transform and returns the gathered
// global result plus the virtual makespan.
func runDistributed(t *testing.T, m *machine.Model, size int, global [3]int, cfg Config, seed int64, dir fft.Direction, aware bool) ([]complex128, float64) {
	t.Helper()
	ref := globalSignal(global, seed)
	w := mpisim.NewWorld(m, size, mpisim.Options{GPUAware: aware})
	outDatas := make([][]complex128, size)
	outBoxes := make([]tensor.Box3, size)
	var mu sync.Mutex
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
		if err := p.execute([]*Field{f}, dir); err != nil {
			panic(err)
		}
		mu.Lock()
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
		mu.Unlock()
	})
	return gather(global, outBoxes, outDatas), res.MaxClock
}

func serialReference(global [3]int, seed int64, dir fft.Direction) []complex128 {
	ref := globalSignal(global, seed)
	fft.Transform3D(ref, global[0], global[1], global[2], dir)
	return ref
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestDistributedMatchesSerialMatrix is the central correctness test: every
// decomposition × backend × contiguity combination must reproduce the serial
// 3-D FFT bit-for-tolerance on a non-cubic grid with brick I/O.
func TestDistributedMatchesSerialMatrix(t *testing.T) {
	global := [3]int{8, 12, 10}
	decomps := []Decomposition{DecompSlabs, DecompPencils, DecompBricks}
	backends := []Backend{BackendAlltoall, BackendAlltoallv, BackendAlltoallw, BackendP2P, BackendP2PBlocking}
	want := serialReference(global, 42, fft.Forward)
	for _, d := range decomps {
		for _, b := range backends {
			for _, contig := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/contig=%v", d, b, contig)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Global: global, Opts: Options{Decomp: d, Backend: b, Contiguous: contig}}
					got, _ := runDistributed(t, machine.Summit(), 6, global, cfg, 42, fft.Forward, true)
					if diff := maxAbsDiff(got, want); diff > tol*float64(len(want)) {
						t.Errorf("distributed differs from serial by %g", diff)
					}
				})
			}
		}
	}
}

func TestDistributedInverseRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	orig := globalSignal(global, 7)
	cfg := Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}}
	fwd, _ := runDistributed(t, machine.Summit(), 12, global, cfg, 7, fft.Forward, true)
	// Feed the forward result back through an inverse plan via a fresh
	// world seeded with the forward output.
	w := mpisim.NewWorld(machine.Summit(), 12, mpisim.Options{GPUAware: true})
	outDatas := make([][]complex128, 12)
	outBoxes := make([]tensor.Box3, 12)
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		f := &Field{Box: p.InBox(), Data: scatter(fwd, global, p.InBox())}
		if err := p.Inverse(f); err != nil {
			panic(err)
		}
		mu.Lock()
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
		mu.Unlock()
	})
	got := gather(global, outBoxes, outDatas)
	if diff := maxAbsDiff(got, orig); diff > tol*float64(len(orig)) {
		t.Errorf("inverse(forward(x)) differs from x by %g", diff)
	}
}

func TestSingleRankPlan(t *testing.T) {
	global := [3]int{4, 6, 8}
	want := serialReference(global, 3, fft.Forward)
	cfg := Config{Global: global, Opts: Options{Decomp: DecompPencils}}
	got, _ := runDistributed(t, machine.Summit(), 1, global, cfg, 3, fft.Forward, true)
	if diff := maxAbsDiff(got, want); diff > tol*float64(len(want)) {
		t.Errorf("single-rank plan differs by %g", diff)
	}
}

func TestExplicitPencilIO(t *testing.T) {
	// Input given directly in x-pencil shape, output in z-pencil shape: the
	// input reshape must be skipped (fewer exchanges than brick I/O).
	global := [3]int{8, 8, 8}
	size := 6
	in := PencilBoxes(global, 0, 2, 3)
	out := PencilBoxes(global, 2, 2, 3)
	cfg := Config{Global: global, InBoxes: in, OutBoxes: out,
		Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, PQ: [2]int{2, 3}}}
	want := serialReference(global, 11, fft.Forward)
	got, _ := runDistributed(t, machine.Summit(), size, global, cfg, 11, fft.Forward, true)
	if diff := maxAbsDiff(got, want); diff > tol*float64(len(want)) {
		t.Errorf("pencil-I/O transform differs by %g", diff)
	}
	// Count exchanges via a plan built outside Run? Build in-world instead.
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	exchanges := make([]int, size)
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		exchanges[c.Rank()] = p.Exchanges()
	})
	if exchanges[0] != 2 {
		t.Errorf("pencil-to-pencil plan has %d exchanges, want 2", exchanges[0])
	}
}

func TestTableIIIBrickIOHasFourExchanges(t *testing.T) {
	global := [3]int{32, 32, 32}
	e := LookupTableIII(24)
	cfg := Config{Global: global,
		InBoxes:  e.InOut.Decompose(global),
		OutBoxes: e.InOut.Decompose(global),
		Opts:     Options{Decomp: DecompPencils, PQ: [2]int{e.P, e.Q}}}
	w := mpisim.NewWorld(machine.Summit(), 24, mpisim.Options{GPUAware: true})
	var exch int
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			exch = p.Exchanges()
		}
	})
	if exch != 4 {
		t.Errorf("brick-I/O pencil pipeline has %d exchanges, want 4 (Table III)", exch)
	}
}

func TestBatchedTransformCorrect(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 6
	const nb = 3
	refs := make([][]complex128, nb)
	wants := make([][]complex128, nb)
	for b := 0; b < nb; b++ {
		refs[b] = globalSignal(global, int64(100+b))
		wants[b] = append([]complex128(nil), refs[b]...)
		fft.Transform3D(wants[b], global[0], global[1], global[2], fft.Forward)
	}
	cfg := Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	outDatas := make([][][]complex128, nb)
	for b := range outDatas {
		outDatas[b] = make([][]complex128, size)
	}
	outBoxes := make([]tensor.Box3, size)
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		fields := make([]*Field, nb)
		for b := 0; b < nb; b++ {
			fields[b] = &Field{Box: p.InBox(), Data: scatter(refs[b], global, p.InBox())}
		}
		if err := p.ForwardBatch(fields); err != nil {
			panic(err)
		}
		mu.Lock()
		for b := 0; b < nb; b++ {
			outDatas[b][c.Rank()] = fields[b].Data
		}
		outBoxes[c.Rank()] = fields[0].Box
		mu.Unlock()
	})
	for b := 0; b < nb; b++ {
		got := gather(global, outBoxes, outDatas[b])
		if diff := maxAbsDiff(got, wants[b]); diff > tol*float64(len(got)) {
			t.Errorf("batch entry %d differs from serial by %g", b, diff)
		}
	}
}

func TestBatchedFasterPerTransform(t *testing.T) {
	// Fig. 13: the per-transform cost inside a batch must beat an isolated
	// transform (overlap + message fusion), by roughly 2× for a small 64³
	// transform on one node.
	global := [3]int{64, 64, 64}
	size := 6
	timePer := func(nb int) float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global,
				Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			fields := make([]*Field, nb)
			for b := range fields {
				fields[b] = NewPhantom(p.InBox())
			}
			if err := p.ForwardBatch(fields); err != nil {
				panic(err)
			}
		})
		return res.MaxClock / float64(nb)
	}
	iso := timePer(1)
	batched := timePer(8)
	speedup := iso / batched
	if speedup < 1.5 {
		t.Errorf("batched speedup %.2fx below expectation (iso=%g batched=%g)", speedup, iso, batched)
	}
}

func TestGridShrinkingCorrect(t *testing.T) {
	// Tiny FFT on many ranks with shrinking: result must still be exact and
	// the plan must use fewer active ranks.
	global := [3]int{4, 4, 4}
	size := 12
	cfg := Config{Global: global,
		Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, ShrinkThreshold: 32}}
	want := serialReference(global, 5, fft.Forward)
	got, _ := runDistributed(t, machine.Summit(), size, global, cfg, 5, fft.Forward, true)
	if diff := maxAbsDiff(got, want); diff > tol*float64(len(want)) {
		t.Errorf("shrunk transform differs by %g", diff)
	}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	var active int
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			active = p.lp
		}
	})
	if active >= size || active < 1 {
		t.Errorf("active ranks = %d, want < %d after shrinking", active, size)
	}
}

func TestGridShrinkingFasterForTinyFFT(t *testing.T) {
	// For an FFT far too small for the rank count, shrinking must reduce the
	// virtual runtime (fewer latency-dominated messages). Pinned to the
	// legacy linear schedule: the scheduled collectives (ring/Bruck) attack
	// the same latency-bound regime and nearly erase the gap.
	global := [3]int{16, 16, 16}
	size := 48
	run := func(threshold int) float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global,
				Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, ShrinkThreshold: threshold,
					Comm: CommConfig{Algo: CollLinear}}})
			if err != nil {
				panic(err)
			}
			f := NewPhantom(p.InBox())
			if err := p.Forward(f); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	if with, without := run(512), run(0); with >= without {
		t.Errorf("shrinking (%g) should beat full grid (%g) for a 16³ FFT on 48 ranks", with, without)
	}
}

func TestPhantomMatchesRealTiming(t *testing.T) {
	global := [3]int{16, 16, 16}
	size := 6
	run := func(phantom bool) float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global,
				Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			var f *Field
			if phantom {
				f = NewPhantom(p.InBox())
			} else {
				f = NewField(p.InBox())
				f.FillRandom(1)
			}
			if err := p.Forward(f); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	ph, re := run(true), run(false)
	if math.Abs(ph-re) > 1e-15 {
		t.Errorf("phantom timing %g != real timing %g", ph, re)
	}
}

func TestAutoDecompositionFollowsModel(t *testing.T) {
	// At small rank counts the model prefers slabs; Auto must pick them.
	global := [3]int{512, 512, 512}
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	var got Decomposition
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompAuto}})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			got = p.Decomp()
		}
	})
	if got != DecompSlabs {
		t.Errorf("auto decomposition at 6 ranks = %v, want slabs (<64 nodes region of Fig. 5)", got)
	}
}

func TestPlanValidation(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		if _, err := NewPlan(c, Config{Global: [3]int{0, 4, 4}}); err == nil {
			t.Error("expected error for zero extent")
		}
		if _, err := NewPlan(c, Config{Global: [3]int{4, 4, 4},
			InBoxes: []tensor.Box3{tensor.NewBox(0, 0, 0, 4, 4, 4)}}); err == nil {
			t.Error("expected error for wrong box count")
		}
		bad := []tensor.Box3{tensor.NewBox(0, 0, 0, 4, 4, 4), tensor.NewBox(0, 0, 0, 4, 4, 4)}
		if _, err := NewPlan(c, Config{Global: [3]int{4, 4, 4}, InBoxes: bad}); err == nil {
			t.Error("expected error for overlapping boxes")
		}
		if _, err := NewPlan(c, Config{Global: [3]int{4, 4, 4},
			Opts: Options{PQ: [2]int{3, 5}}}); err == nil {
			t.Error("expected error for PQ not matching rank count")
		}
	})
}

func TestFieldValidation(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{4, 4, 4}})
		if err != nil {
			panic(err)
		}
		wrong := NewField(tensor.NewBox(0, 0, 0, 1, 1, 1))
		if err := p.Forward(wrong); err == nil {
			t.Error("expected error for mismatched field box")
		}
		if err := p.ForwardBatch(nil); err == nil {
			t.Error("expected error for empty batch")
		}
	})
}

func TestCommunicationDominatesAtScale(t *testing.T) {
	// The paper: communication is over 90% of runtime for 512³ on 24 GPUs.
	// Verify with a phantom run at the real scale using the tracer.
	global := [3]int{512, 512, 512}
	size := 24
	e := LookupTableIII(size)
	tr := newTracerWorldRun(t, size, global, e, BackendAlltoallv)
	total := 0.0
	comm := 0.0
	for name, v := range tr {
		total += v
		switch name {
		case "MPI_Alltoallv", "MPI_Alltoall", "MPI_Alltoallw":
			comm += v
		}
	}
	if frac := comm / total; frac < 0.75 {
		t.Errorf("communication fraction %.2f below the >0.9 regime the paper reports", frac)
	}
}

// newTracerWorldRun runs one phantom Forward and returns the per-kernel
// totals of the rank that finishes last.
func newTracerWorldRun(t *testing.T, size int, global [3]int, e GridEntry, b Backend) map[string]float64 {
	t.Helper()
	tr := trace.New()
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Tracer: tr})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global,
			InBoxes: e.InOut.Decompose(global), OutBoxes: e.InOut.Decompose(global),
			Opts: Options{Decomp: DecompPencils, Backend: b, PQ: [2]int{e.P, e.Q}}})
		if err != nil {
			panic(err)
		}
		f := NewPhantom(p.InBox())
		if err := p.Forward(f); err != nil {
			panic(err)
		}
	})
	return tr.TotalByName(slices.Index(res.Clocks, res.MaxClock))
}
