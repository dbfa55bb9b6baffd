package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

func maxAbs(a []complex128) float64 {
	var m float64
	for _, v := range a {
		m = math.Max(m, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	return m
}

// relErr is the peak-normalized maximum error of got vs want — the metric
// WireErrorBound bounds.
func relErr(got, want []complex128) float64 {
	peak := maxAbs(want)
	if peak == 0 {
		return 0
	}
	var m float64
	for i := range want {
		m = math.Max(m, math.Abs(real(got[i])-real(want[i])))
		m = math.Max(m, math.Abs(imag(got[i])-imag(want[i])))
	}
	return m / peak
}

// TestWireRoundTripCollectives sweeps all five collective schedules × all
// three wire precisions on a pencil plan: fp64 stays bit-identical to the
// uncompressed baseline, fp32/fp16 land within the analytic error bound of
// the plan's two compressed interior exchanges.
func TestWireRoundTripCollectives(t *testing.T) {
	global := [3]int{8, 12, 10}
	mkCfg := func(algo CollAlgo, w WirePrecision) Config {
		return Config{Global: global, Opts: Options{
			Decomp:  DecompPencils,
			Backend: BackendAlltoallv,
			Comm:    CommConfig{Algo: algo, Wire: w},
		}}
	}
	base, _ := runDistributed(t, machine.Summit(), 6, global, mkCfg(CollLinear, WireFp64), 42, fft.Forward, true)
	serial := serialReference(global, 42, fft.Forward)
	if diff := maxAbsDiff(base, serial); diff > tol*float64(len(serial)) {
		t.Fatalf("fp64 baseline differs from serial by %g", diff)
	}
	algos := []CollAlgo{CollLinear, CollPairwise, CollRing, CollBruck, CollNodeAware}
	for _, algo := range algos {
		for _, w := range []WirePrecision{WireFp64, WireFp32, WireFp16} {
			t.Run(fmt.Sprintf("%v/%v", algo, w), func(t *testing.T) {
				got, _ := runDistributed(t, machine.Summit(), 6, global, mkCfg(algo, w), 42, fft.Forward, true)
				if w == WireFp64 {
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("fp64 wire not bit-identical at element %d: %v vs %v", i, got[i], base[i])
						}
					}
					return
				}
				bound := WireErrorBound(w, 2) // pencils: two interior exchanges
				if e := relErr(got, base); e > bound {
					t.Fatalf("%v error %g exceeds analytic bound %g", w, e, bound)
				}
			})
		}
	}
}

// TestWireRoundTripBackends covers the remaining transports: the padded
// alltoall, both P2P flavours, the chunked pipeline (overlapped and serial),
// and the datatype backend — which has no pack kernel to compress in, so
// requesting compression there is a configuration error.
func TestWireRoundTripBackends(t *testing.T) {
	global := [3]int{8, 12, 10}
	mk := func(b Backend, chunks int, ov OverlapMode, w WirePrecision) Config {
		return Config{Global: global, Opts: Options{
			Decomp:  DecompPencils,
			Backend: b,
			Comm:    CommConfig{Chunks: chunks, Overlap: ov, Wire: w},
		}}
	}
	base, _ := runDistributed(t, machine.Summit(), 6, global, mk(BackendAlltoallv, 0, OverlapAuto, WireFp64), 42, fft.Forward, true)
	cases := []struct {
		name string
		cfg  func(w WirePrecision) Config
	}{
		{"alltoall", func(w WirePrecision) Config { return mk(BackendAlltoall, 0, OverlapAuto, w) }},
		{"p2p", func(w WirePrecision) Config { return mk(BackendP2P, 0, OverlapAuto, w) }},
		{"p2p-blocking", func(w WirePrecision) Config { return mk(BackendP2PBlocking, 0, OverlapAuto, w) }},
		{"chunked-overlap", func(w WirePrecision) Config { return mk(BackendAlltoallv, 3, OverlapAuto, w) }},
		{"chunked-serial", func(w WirePrecision) Config { return mk(BackendAlltoallv, 3, OverlapOff, w) }},
	}
	for _, c := range cases {
		for _, w := range []WirePrecision{WireFp64, WireFp32, WireFp16} {
			t.Run(fmt.Sprintf("%s/%v", c.name, w), func(t *testing.T) {
				got, _ := runDistributed(t, machine.Summit(), 6, global, c.cfg(w), 42, fft.Forward, true)
				if w == WireFp64 {
					for i := range base {
						if got[i] != base[i] {
							t.Fatalf("fp64 wire not bit-identical at element %d", i)
						}
					}
					return
				}
				if e, bound := relErr(got, base), WireErrorBound(w, 2); e > bound {
					t.Fatalf("%v error %g exceeds analytic bound %g", w, e, bound)
				}
			})
		}
	}
	// Alltoallw has no pack kernels to fuse a conversion into: requesting
	// compression is rejected at plan build, not silently run at fp64.
	for _, w := range []WirePrecision{WireFp32, WireFp16} {
		mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true}).Run(func(c *mpisim.Comm) {
			if _, err := NewPlan(c, mk(BackendAlltoallw, 0, OverlapAuto, w)); !errors.Is(err, ErrBadConfig) {
				t.Errorf("alltoallw under %v wire: err = %v, want ErrBadConfig", w, err)
			}
		})
	}
}

// TestWireInverseRoundTrip pins the end-to-end numerics of a compressed
// forward+inverse pair: the reconstruction error stays within the bound of
// the four compressed exchanges the round trip performs.
func TestWireInverseRoundTrip(t *testing.T) {
	global := [3]int{8, 8, 8}
	orig := globalSignal(global, 7)
	for _, w := range []WirePrecision{WireFp32, WireFp16} {
		cfg := Config{Global: global, Opts: Options{
			Decomp: DecompPencils, Backend: BackendAlltoallv,
			Comm: CommConfig{Wire: w},
		}}
		fwd, _ := runDistributed(t, machine.Summit(), 12, global, cfg, 7, fft.Forward, true)
		// Feed the forward spectrum back through an inverse plan (Inverse
		// applies the 1/N normalization itself).
		got := runInverseOn(t, global, cfg, fwd)
		// 2 compressed exchanges each way; the quantization of the forward
		// spectrum re-enters the signal through the inverse sum, so the bound
		// carries the spectrum's crest factor (≤ √N for random data).
		bound := WireErrorBound(w, 4) * math.Sqrt(float64(len(orig)))
		if e := relErr(got, orig); e > bound {
			t.Fatalf("%v round trip error %g exceeds %g", w, e, bound)
		}
	}
}

// runInverseOn scatters the given global spectrum and runs one inverse
// (unscaled) transform under cfg.
func runInverseOn(t *testing.T, global [3]int, cfg Config, spectrum []complex128) []complex128 {
	t.Helper()
	w := mpisim.NewWorld(machine.Summit(), 12, mpisim.Options{GPUAware: true})
	outDatas := make([][]complex128, 12)
	outBoxes := make([]tensor.Box3, 12)
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			panic(err)
		}
		f := &Field{Box: p.InBox(), Data: scatter(spectrum, global, p.InBox())}
		if err := p.Inverse(f); err != nil {
			panic(err)
		}
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
	})
	if res.Err != nil {
		t.Fatalf("inverse world failed: %v", res.Err)
	}
	return gather(global, outBoxes, outDatas)
}

// TestWireFp32StagedFaster pins the perf claim the layer exists for: on a
// staged (non-GPU-aware) exchange, compressing the interior payloads must
// strictly reduce the virtual makespan, and fp16 must beat fp32.
func TestWireFp32StagedFaster(t *testing.T) {
	global := [3]int{32, 32, 32}
	clockFor := func(w WirePrecision) float64 {
		cfg := Config{Global: global, Opts: Options{
			Decomp: DecompPencils, Backend: BackendAlltoallv,
			Comm: CommConfig{Wire: w},
		}}
		_, clk := runDistributed(t, machine.Summit(), 8, global, cfg, 3, fft.Forward, false)
		return clk
	}
	t64, t32, t16 := clockFor(WireFp64), clockFor(WireFp32), clockFor(WireFp16)
	if t32 >= t64 {
		t.Errorf("fp32 staged clock %g not faster than fp64 %g", t32, t64)
	}
	if t16 >= t32 {
		t.Errorf("fp16 staged clock %g not faster than fp32 %g", t16, t32)
	}
}

// TestWireABFTNoFalsePositive is the PR 8 regression the wire epsilon exists
// for: a clean compressed run under the full integrity stack must pass every
// envelope verification and phase invariant — wire-grid rounding is not
// corruption.
func TestWireABFTNoFalsePositive(t *testing.T) {
	global := [3]int{32, 32, 32}
	for _, wp := range []WirePrecision{WireFp32, WireFp16} {
		ref := globalSignal(global, 7)
		ic := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
		w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Integrity: ic})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: Options{Comm: CommConfig{Wire: wp}}})
			if err != nil {
				t.Errorf("NewPlan: %v", err)
				return
			}
			f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
			if err := p.Forward(f); err != nil {
				t.Errorf("%v Forward under integrity: %v", wp, err)
			}
		})
		if res.Err != nil {
			t.Fatalf("%v world failed: %v", wp, res.Err)
		}
		snap := w.IntegrityCounters().Snapshot()
		if snap.InvariantChecks == 0 || snap.ChecksumChecks == 0 {
			t.Fatalf("%v integrity did not run: %+v", wp, snap)
		}
		if snap.InvariantFailures != 0 || snap.ChecksumMismatches != 0 || snap.Retransmits != 0 || snap.PhaseReexecs != 0 {
			t.Fatalf("%v clean compressed run tripped a defense: %+v", wp, snap)
		}
	}
}

// TestWireABFTStillTripsOnFlip: widening the invariant floor to the wire
// epsilon must not blind it — a real injected device-memory flip under fp32
// wire still fails the invariant and heals through phase re-execution.
func TestWireABFTStillTripsOnFlip(t *testing.T) {
	global := [3]int{32, 32, 32}
	ref := globalSignal(global, 7)
	fp := &faults.Plan{Timeout: 1, Events: []faults.Event{
		{Kind: faults.CorruptSilent, Brick: true, Rank: 2, Op: 0, Count: 1},
	}}
	ic := mpisim.IntegrityConfig{Invariants: true}
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Integrity: ic, Faults: fp})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: Options{Comm: CommConfig{Wire: WireFp32}}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
		if err := p.Forward(f); err != nil {
			t.Errorf("recoverable flip failed the transform: %v", err)
		}
	})
	if res.Err != nil {
		t.Fatalf("world failed: %v", res.Err)
	}
	snap := w.IntegrityCounters().Snapshot()
	if snap.InvariantFailures == 0 || snap.PhaseReexecs == 0 {
		t.Fatalf("injected flip under fp32 wire was not caught: %+v", snap)
	}
}

// TestCommPhasesReportWire pins the observability contract: interior phases
// report the configured precision, input/output phases report fp64.
func TestCommPhasesReportWire(t *testing.T) {
	w := mpisim.NewWorld(machine.Summit(), 6, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{12, 12, 12}, Opts: Options{
			Decomp: DecompPencils, Backend: BackendAlltoallv,
			Comm: CommConfig{Wire: WireFp16},
		}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		defer p.Close()
		if c.Rank() != 0 {
			return
		}
		seen := map[string]WirePrecision{}
		for _, cp := range p.CommPhases() {
			seen[cp.Label] = cp.Wire
		}
		for label, want := range map[string]WirePrecision{
			"pencil-x": WireFp64, "pencil-y": WireFp16, "pencil-z": WireFp16, "output": WireFp64,
		} {
			if got, ok := seen[label]; ok && got != want {
				t.Errorf("phase %s reports wire %v, want %v", label, got, want)
			}
		}
		if p.CompressedExchanges() != 2 {
			t.Errorf("CompressedExchanges = %d, want 2", p.CompressedExchanges())
		}
		if got, want := p.WireBound(), WireErrorBound(WireFp16, 2); got != want {
			t.Errorf("WireBound = %g, want %g", got, want)
		}
	})
}
