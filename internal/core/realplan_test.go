package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// serialR2C computes the reference half-spectrum of a real global array by a
// full complex transform truncated to k2 <= N2/2.
func serialR2C(global [3]int, data []float64) []complex128 {
	cx := make([]complex128, len(data))
	for i, v := range data {
		cx[i] = complex(v, 0)
	}
	fft.Transform3D(cx, global[0], global[1], global[2], fft.Forward)
	h := global[2]/2 + 1
	out := make([]complex128, global[0]*global[1]*h)
	for i0 := 0; i0 < global[0]; i0++ {
		for i1 := 0; i1 < global[1]; i1++ {
			for i2 := 0; i2 < h; i2++ {
				out[(i0*global[1]+i1)*h+i2] = cx[(i0*global[1]+i1)*global[2]+i2]
			}
		}
	}
	return out
}

func randomRealGlobal(global [3]int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, global[0]*global[1]*global[2])
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// runRealDistributed runs one R2C forward and gathers the half-spectrum.
func runRealDistributed(t *testing.T, size int, global [3]int, opts Options, seed int64) []complex128 {
	t.Helper()
	ref := randomRealGlobal(global, seed)
	half := [3]int{global[0], global[1], global[2]/2 + 1}
	fullReal := tensor.FullBox(global)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	outDatas := make([][]complex128, size)
	outBoxes := make([]tensor.Box3, size)
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: opts})
		if err != nil {
			panic(err)
		}
		local := make([]float64, p.InBox().Volume())
		tensor.Pack(ref, fullReal, p.InBox(), local)
		rf := &RealField{Box: p.InBox(), Data: local}
		f, err := p.Forward(rf)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
		mu.Unlock()
	})
	fullHalf := tensor.FullBox(half)
	out := make([]complex128, half[0]*half[1]*half[2])
	for r, b := range outBoxes {
		if b.Volume() > 0 {
			tensor.Unpack(out, fullHalf, b, outDatas[r])
		}
	}
	return out
}

func TestRealPlanValidationErrors(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
	w.Run(func(c *mpisim.Comm) {
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 5}}); err == nil {
			t.Error("expected error for odd N2")
		}
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{0, 4, 4}}); err == nil {
			t.Error("expected error for zero extent")
		}
		if _, err := NewRealPlan(c, RealConfig{Global: [3]int{4, 4, 4}, Opts: Options{PQ: [2]int{3, 5}}}); err == nil {
			t.Error("expected error for bad PQ")
		}
	})
}

func TestDistributedR2CMatchesSerial(t *testing.T) {
	for _, bk := range []Backend{BackendAlltoallv, BackendP2P, BackendAlltoallw} {
		global := [3]int{8, 6, 10}
		ref := randomRealGlobal(global, 51)
		want := serialR2C(global, ref)
		got := runRealDistributed(t, 6, global, Options{Backend: bk}, 51)
		var maxDiff float64
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-9*float64(len(want)) {
			t.Errorf("backend %v: distributed R2C differs from serial by %g", bk, maxDiff)
		}
	}
}

func TestDistributedR2CRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 6
	ref := randomRealGlobal(global, 52)
	fullReal := tensor.FullBox(global)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	maxErr := make([]float64, size)
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		local := make([]float64, p.InBox().Volume())
		tensor.Pack(ref, fullReal, p.InBox(), local)
		orig := append([]float64(nil), local...)
		rf := &RealField{Box: p.InBox(), Data: local}
		f, err := p.Forward(rf)
		if err != nil {
			panic(err)
		}
		back, err := p.Inverse(f)
		if err != nil {
			panic(err)
		}
		if !back.Box.Equal(p.InBox()) {
			panic("inverse did not return to the input distribution")
		}
		for i := range orig {
			if d := math.Abs(back.Data[i] - orig[i]); d > maxErr[c.Rank()] {
				maxErr[c.Rank()] = d
			}
		}
	})
	for r, e := range maxErr {
		if e > 1e-9*float64(global[0]*global[1]*global[2]) {
			t.Errorf("rank %d: C2R(R2C(x)) differs from x by %g", r, e)
		}
	}
}

// TestR2CCheaperThanC2C: the real input reshape moves half the bytes and the
// half-grid pipeline moves ~half the complex volume, so the R2C transform
// must be substantially cheaper than the complex transform of the same grid.
func TestR2CCheaperThanC2C(t *testing.T) {
	global := [3]int{64, 64, 64}
	size := 12
	r2cTime := func() float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			rf := NewRealPhantom(p.InBox())
			if _, err := p.Forward(rf); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	c2cTime := func() float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}})
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
	r2c, c2c := r2cTime(), c2cTime()
	if r2c >= c2c {
		t.Errorf("R2C (%g) should be cheaper than C2C (%g)", r2c, c2c)
	}
	if ratio := r2c / c2c; ratio > 0.85 {
		t.Errorf("R2C/C2C ratio %.2f too high — the half-volume saving is missing", ratio)
	}
}

// TestR2CPhantomTimingMatchesReal mirrors the C2C property for R2C plans.
func TestR2CPhantomTimingMatchesReal(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 4
	run := func(phantom bool) float64 {
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
			if err != nil {
				panic(err)
			}
			var rf *RealField
			if phantom {
				rf = NewRealPhantom(p.InBox())
			} else {
				rf = NewRealField(p.InBox())
				for i := range rf.Data {
					rf.Data[i] = float64(i % 7)
				}
			}
			if _, err := p.Forward(rf); err != nil {
				panic(err)
			}
		})
		return res.MaxClock
	}
	if ph, re := run(true), run(false); math.Abs(ph-re) > 1e-15 {
		t.Errorf("phantom %g != real %g", ph, re)
	}
}

// TestR2CTraceHasRealKernels verifies the r2c kernel and half-byte reshape
// appear in the trace.
func TestR2CTraceHasRealKernels(t *testing.T) {
	tr := trace.New()
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Tracer: tr})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: [3]int{16, 16, 16}, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		rf := NewRealPhantom(p.InBox())
		if _, err := p.Forward(rf); err != nil {
			panic(err)
		}
	})
	totals := tr.TotalByName(0)
	if totals["cufft_r2c"] <= 0 {
		t.Errorf("missing r2c kernel in trace: %v", tr.Names())
	}
	if totals["MPI_Alltoallv"] <= 0 {
		t.Error("missing exchange in trace")
	}
}

// TestR2CBatchedMatchesSequential: batched R2C gives identical numerics.
func TestR2CBatchedMatchesSequential(t *testing.T) {
	global := [3]int{8, 6, 8}
	size := 4
	refs := [][]float64{randomRealGlobal(global, 61), randomRealGlobal(global, 62)}
	fullReal := tensor.FullBox(global)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	ok := true
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		mk := func(i int) *RealField {
			local := make([]float64, p.InBox().Volume())
			tensor.Pack(refs[i], fullReal, p.InBox(), local)
			return &RealField{Box: p.InBox(), Data: local}
		}
		batch, err := p.ForwardBatch([]*RealField{mk(0), mk(1)})
		if err != nil {
			panic(err)
		}
		for i := 0; i < 2; i++ {
			single, err := p.Forward(mk(i))
			if err != nil {
				panic(err)
			}
			for j := range single.Data {
				if single.Data[j] != batch[i].Data[j] {
					ok = false
					return
				}
			}
		}
	})
	if !ok {
		t.Error("batched R2C differs from sequential")
	}
}

// TestR2CBatchedRoundTrip: InverseBatch(ForwardBatch(x)) == x.
func TestR2CBatchedRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	size := 6
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	var maxErr float64
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewRealPlan(c, RealConfig{Global: global, Opts: Options{Backend: BackendAlltoallv}})
		if err != nil {
			panic(err)
		}
		origs := make([][]float64, 2)
		rfs := make([]*RealField, 2)
		for i := range rfs {
			rfs[i] = NewRealField(p.InBox())
			for j := range rfs[i].Data {
				rfs[i].Data[j] = float64((j*7+i*13)%23) - 11
			}
			origs[i] = append([]float64(nil), rfs[i].Data...)
		}
		fs, err := p.ForwardBatch(rfs)
		if err != nil {
			panic(err)
		}
		back, err := p.InverseBatch(fs)
		if err != nil {
			panic(err)
		}
		local := 0.0
		for i := range back {
			for j := range origs[i] {
				if d := math.Abs(back[i].Data[j] - origs[i][j]); d > local {
					local = d
				}
			}
		}
		mu.Lock()
		if local > maxErr {
			maxErr = local
		}
		mu.Unlock()
	})
	if maxErr > 1e-9*float64(global[0]*global[1]*global[2]) {
		t.Errorf("batched R2C round trip differs by %g", maxErr)
	}
}
