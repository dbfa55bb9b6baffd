package core

import "repro/internal/mpisim"

// Wire precision: the reduced-precision wire-exchange layer. A plan whose
// CommConfig requests a compressed wire ships the *intermediate* reshape
// payloads — the all-to-alls strictly between compute stages — at fp32 or
// fp16 instead of full double precision, halving or quartering the bytes in
// flight (and the PCIe staging copies of non-GPU-aware transports) in exactly
// the exchange-dominated regime the paper's bandwidth model (eqs. 2–5)
// identifies. Down-conversion fuses into the reshape pack kernels and
// up-conversion into unpack: no extra sweeps, the pooled staging buffers and
// zero-alloc steady state are untouched, and a priced convert pass
// (machine.GPU.ConvertCost) covers the full-width side of the fused stream.
//
// Input and output reshapes — where payloads are caller data — always run at
// full precision. A backend without pack kernels to fuse a conversion into
// (Alltoallw, which hands the library derived datatypes) rejects a compressed
// wire at plan build.

// WirePrecision selects the on-wire element format of compressed exchanges.
// It aliases the simulator's type: the core layer marks payload buffers and
// the transport prices them, so the two must agree on the vocabulary.
type WirePrecision = mpisim.WirePrecision

const (
	// WireFp64 ships full double precision (the default; numerically exact
	// and bit-identical — payloads and virtual time — to a tree without the
	// wire-precision layer).
	WireFp64 = mpisim.WireFp64
	// WireFp32 ships single precision: half the wire bytes, ~6e-8 relative
	// rounding per element per compressed exchange.
	WireFp32 = mpisim.WireFp32
	// WireFp16 ships half precision: a quarter of the wire bytes, ~4.9e-4
	// relative rounding per element per compressed exchange (saturating at
	// ±65504).
	WireFp16 = mpisim.WireFp16
)

// WireElemSize returns the on-wire size of one element whose full-precision
// size is elemBytes (8 for float64, 16 for complex128). It is the single
// place the element-size arithmetic of exchange accounting lives — exchStats
// consumers, the model callers, and the integrity envelope all consult it
// instead of assuming 16 bytes.
func WireElemSize(w WirePrecision, elemBytes int) int {
	if elemBytes == 8 {
		return w.RealBytes()
	}
	return w.ComplexBytes()
}

// WireErrorBound returns an analytic bound on the max relative error (with
// respect to the peak magnitude of the data) a transform accumulates from
// shipping `exchanges` reshapes at wire precision w. Each compressed exchange
// rounds every element once, contributing at most one half-ulp of relative
// error; the factor 4 covers the interaction with the transform's own
// growth between exchanges. Zero for WireFp64.
func WireErrorBound(w WirePrecision, exchanges int) float64 {
	if w == WireFp64 || exchanges <= 0 {
		return 0
	}
	return float64(exchanges) * 4 * w.Eps()
}

// wireOf resolves the wire precision this reshape actually runs at: the
// configured precision for interior reshapes of backends that compress,
// full precision everywhere else.
func (rs *reshapePlan) wireOf(opts Options) WirePrecision {
	if !rs.interior || !opts.Backend.Capabilities().Wire {
		return WireFp64
	}
	return opts.Comm.Wire
}

// CompressedExchanges returns the number of reshape phases that ship at
// reduced precision under the plan's configuration (zero when the wire is
// fp64).
func (p *Plan) CompressedExchanges() int { return compressedExchanges(p.opts, p.stages) }

func compressedExchanges(opts Options, stages []stage) int {
	if opts.Comm.Wire == WireFp64 {
		return 0
	}
	n := 0
	for _, st := range stages {
		if st.kind == stageReshape && st.rs.wireOf(opts) != WireFp64 {
			n++
		}
	}
	return n
}

// WireBound returns the analytic accuracy bound of the plan's configuration:
// WireErrorBound over its compressed exchange count.
func (p *Plan) WireBound() float64 {
	return WireErrorBound(p.opts.Comm.Wire, p.CompressedExchanges())
}

// abftEpsOf returns the quantization-noise unit widening the ABFT invariant
// floor of a stage list (see invariantOK): the wire epsilon when any exchange
// is compressed — data reaching a compute stage then carries wire-grid
// rounding — and zero otherwise, keeping the fp64 path bit-identical.
func abftEpsOf(opts Options, stages []stage) float64 {
	if eps := opts.Comm.Wire.Eps(); compressedExchanges(opts, stages) > 0 && eps > sumEps {
		return eps
	}
	return 0
}
