package machine

import "math"

// GPU models the execution cost of the local kernels a distributed FFT runs
// on each accelerator: batched 1-D/2-D FFTs (cuFFT/rocFFT), packing/unpacking
// kernels, and device↔host copies. Costs are returned in seconds of virtual
// time; the actual numerics are computed by internal/fft on the CPU.
type GPU struct {
	Name string

	// FFTThroughput is the effective flop/s achieved by the vendor FFT on
	// large contiguous batches (well below the card's peak: cuFFT fp64 on
	// V100 sustains ~1-2 TF on big batches).
	FFTThroughput float64
	// KernelLaunch is the fixed cost of launching any kernel.
	KernelLaunch float64
	// StridedPenalty multiplies the FFT compute cost when the transform
	// input is strided (non-contiguous). The paper observes this for cuFFT,
	// FFTW and rocFFT alike (Fig. 10).
	StridedPenalty float64
	// StridedSetup is the additional per-call cost of a strided transform —
	// the recurring spike visible in Fig. 10.
	StridedSetup float64
	// MemBW is the effective device-memory bandwidth seen by pack/unpack
	// kernels (each element is read once and written once).
	MemBW float64
	// PCIeBW is the device↔host copy bandwidth.
	PCIeBW float64

	// ChecksumBW is the effective bandwidth of the fused checksum /
	// sum-reduction kernels of the integrity layer. Checksums ride the read
	// stream of the pack/unpack kernels already touching the data, so only
	// the reduction tail and extra ALU work are exposed — the effective rate
	// is well above MemBW. Zero falls back to MemBW (standalone pass).
	ChecksumBW float64
	// ChecksumOverhead is the fixed cost per checksum/sum pass (reduction
	// tail + bookkeeping; far below a full kernel launch because the pass
	// fuses into kernels that launch anyway). Zero falls back to
	// KernelLaunch/16.
	ChecksumOverhead float64
}

// fftFlops returns the classic 5·n·log2(n) flop count of one complex
// transform of length n.
func fftFlops(n int) float64 {
	if n <= 1 {
		return 0
	}
	return 5 * float64(n) * math.Log2(float64(n))
}

// FFT1DCost returns the virtual time of a batch of 1-D transforms of length
// n. strided marks non-unit-stride input (Fig. 10 spike + throughput
// penalty).
func (g *GPU) FFT1DCost(n, batch int, strided bool) float64 {
	if batch <= 0 {
		return 0
	}
	t := g.KernelLaunch + fftFlops(n)*float64(batch)/g.FFTThroughput
	if strided {
		t = g.StridedSetup + g.KernelLaunch + fftFlops(n)*float64(batch)*g.StridedPenalty/g.FFTThroughput
	}
	return t
}

// FFTR2CCost returns the virtual time of a batch of real-to-complex (or
// complex-to-real) 1-D transforms of real length n. The two-for-one packing
// makes an R2C cost slightly more than half a complex transform.
func (g *GPU) FFTR2CCost(n, batch int) float64 {
	if batch <= 0 {
		return 0
	}
	return g.KernelLaunch + 0.55*fftFlops(n)*float64(batch)/g.FFTThroughput
}

// FFT2DCost returns the virtual time of a batch of 2-D n0×n1 transforms
// (used by the slab decomposition, which computes 2-D FFTs locally).
func (g *GPU) FFT2DCost(n0, n1, batch int, strided bool) float64 {
	// A 2-D transform is n1 transforms of length n0 plus n0 of length n1;
	// vendor implementations fuse them, so charge one launch.
	flops := (fftFlops(n0)*float64(n1) + fftFlops(n1)*float64(n0)) * float64(batch)
	t := g.KernelLaunch + flops/g.FFTThroughput
	if strided {
		t = g.StridedSetup + g.KernelLaunch + flops*g.StridedPenalty/g.FFTThroughput
	}
	return t
}

// PackCost returns the virtual time of a pack or unpack kernel moving the
// given number of bytes (one read + one write per element through HBM).
func (g *GPU) PackCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	return g.KernelLaunch + 2*float64(bytes)/g.MemBW
}

// ChecksumRate returns the effective (bandwidth, fixed overhead) the
// checksum/sum passes run at, with the documented fallbacks applied. The
// tuning predictor uses this so it and the simulator price integrity work
// identically.
func (g *GPU) ChecksumRate() (bw, overhead float64) {
	bw = g.ChecksumBW
	if bw <= 0 {
		bw = g.MemBW
	}
	overhead = g.ChecksumOverhead
	if overhead <= 0 {
		overhead = g.KernelLaunch / 16
	}
	return bw, overhead
}

// ChecksumCost returns the virtual time of one checksum or sum-reduction
// pass over the given bytes (integrity layer: transport envelopes, ABFT
// brick sums).
func (g *GPU) ChecksumCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	bw, oh := g.ChecksumRate()
	return oh + float64(bytes)/bw
}

// ConvertRate returns the effective (bandwidth, fixed overhead) the fused
// precision-conversion passes of the wire-compression layer
// (float64↔float32/half casts) run at. A convert rides inside a pack/unpack
// kernel already streaming the data: the pack is charged on the narrow wire
// bytes it writes, and this pass covers the extra full-width side of the
// stream plus the cast ALU work. Casts vectorize and hide under the memory
// stream, so the rate is twice MemBW, and the pass adds a sixteenth of a
// launch. Like ChecksumRate, it exists so the tuning predictor and the
// simulator price conversions identically.
func (g *GPU) ConvertRate() (bw, overhead float64) {
	return 2 * g.MemBW, g.KernelLaunch / 16
}

// ConvertCost returns the virtual time of one fused down- or up-conversion
// pass over the given full-precision bytes (the wide side of the stream; the
// narrow wire bytes are billed by the pack/unpack kernel the pass fuses into).
func (g *GPU) ConvertCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	bw, oh := g.ConvertRate()
	return oh + float64(bytes)/bw
}

// RetainCost returns the virtual time of snapshotting a brick for
// phase-scoped re-execution fused with its sum pass (read + write + reduce).
func (g *GPU) RetainCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	bw, oh := g.ChecksumRate()
	return oh + 2.5*float64(bytes)/bw
}

// ReorderCost returns the virtual time of an on-device transposition kernel
// rearranging bytes so an FFT axis becomes contiguous. Transpositions are
// less cache-friendly than linear packs; charge an extra 50%.
func (g *GPU) ReorderCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	return g.KernelLaunch + 3*float64(bytes)/g.MemBW
}

// CopyCost returns the virtual time of a device↔host copy.
func (g *GPU) CopyCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	return g.KernelLaunch + float64(bytes)/g.PCIeBW
}

// PointwiseCost returns the virtual time of an elementwise kernel (e.g. the
// reciprocal-space convolution of a Poisson solver) over the given bytes.
func (g *GPU) PointwiseCost(bytes int) float64 {
	if bytes == 0 {
		return 0
	}
	return g.KernelLaunch + 2*float64(bytes)/g.MemBW
}
