// Package gpu charges virtual time for the local kernels a distributed FFT
// launches on each accelerator — batched vendor FFTs, pack/unpack and
// transpose kernels, device↔host copies — and records one trace event per
// kernel so the paper's per-call and breakdown figures can be regenerated.
//
// The numerics of the kernels are computed elsewhere (internal/fft on the
// CPU); a Device only accounts for what the kernels would cost on the
// modelled GPU.
package gpu

import (
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// Device is one rank's accelerator.
type Device struct {
	comm  *mpisim.Comm
	model *machine.GPU
	// The FFT kernels' trace event names carry the vendor library: cuFFT on
	// V100 machines, rocFFT on MI100 (Fig. 13 uses both). They are
	// precomputed so charging a kernel on the execution hot path performs no
	// allocations.
	name1D, name1DStrided string
	name2D, name2DStrided string
	nameR2C               string
}

// New returns the device of the calling rank.
func New(c *mpisim.Comm) *Device {
	g := &c.Model().GPU
	name := "cufft"
	if g.Name == "MI100" {
		name = "rocfft"
	}
	return &Device{
		comm: c, model: g,
		name1D: name + "_1d", name1DStrided: name + "_1d_strided",
		name2D: name + "_2d", name2DStrided: name + "_2d_strided",
		nameR2C: name + "_r2c",
	}
}

// Model returns the underlying GPU cost model.
func (d *Device) Model() *machine.GPU { return d.model }

func (d *Device) charge(name string, dt float64, bytes int) {
	start := d.comm.Clock()
	d.comm.Advance(dt)
	d.comm.Tracer().Record(trace.Event{
		Rank: d.comm.WorldRank(d.comm.Rank()), Name: name,
		Start: start, End: start + dt, Bytes: bytes,
	})
}

// FFT1D charges a batch of 1-D transforms of length n. strided marks
// non-unit-stride input, which pays the Fig. 10 spike.
func (d *Device) FFT1D(n, batch int, strided bool) {
	if batch == 0 {
		return
	}
	name := d.name1D
	if strided {
		name = d.name1DStrided
	}
	d.charge(name, d.model.FFT1DCost(n, batch, strided), 16*n*batch)
}

// FFTR2C charges a batch of real-to-complex (or complex-to-real) 1-D
// transforms of real length n.
func (d *Device) FFTR2C(n, batch int) {
	if batch == 0 {
		return
	}
	d.charge(d.nameR2C, d.model.FFTR2CCost(n, batch), 8*n*batch)
}

// FFT2D charges a batch of 2-D n0×n1 transforms (slab decomposition).
func (d *Device) FFT2D(n0, n1, batch int, strided bool) {
	if batch == 0 {
		return
	}
	name := d.name2D
	if strided {
		name = d.name2DStrided
	}
	d.charge(name, d.model.FFT2DCost(n0, n1, batch, strided), 16*n0*n1*batch)
}

// Pack charges a packing kernel over the given bytes. transposed marks the
// "contiguous/transposed" local-FFT path, where packing doubles as an axis
// transposition and costs more (Figs. 6 and 7 left panels).
func (d *Device) Pack(bytes int, transposed bool) {
	if bytes == 0 {
		return
	}
	cost := d.model.PackCost(bytes)
	if transposed {
		cost = d.model.ReorderCost(bytes)
	}
	d.charge("pack", cost, bytes)
}

// Unpack charges an unpacking kernel; see Pack for the transposed flag.
func (d *Device) Unpack(bytes int, transposed bool) {
	if bytes == 0 {
		return
	}
	cost := d.model.PackCost(bytes)
	if transposed {
		cost = d.model.ReorderCost(bytes)
	}
	d.charge("unpack", cost, bytes)
}

// Copy charges a device↔host transfer (outside MPI, e.g. result download).
func (d *Device) Copy(bytes int) {
	if bytes == 0 {
		return
	}
	d.charge("copy", d.model.CopyCost(bytes), bytes)
}

// Checksum charges a checksum/sum-reduction pass over the given bytes (ABFT
// invariant evaluation, envelope sums fused into pack/unpack streams).
func (d *Device) Checksum(bytes int) {
	if bytes == 0 {
		return
	}
	d.charge("checksum", d.model.ChecksumCost(bytes), bytes)
}

// Convert charges a fused precision-conversion pass (wire compression:
// float64↔float32/half casts riding inside a pack or unpack kernel). bytes is
// the full-precision side of the stream; the narrow wire bytes are billed by
// the Pack/Unpack charge the pass fuses into.
func (d *Device) Convert(bytes int) {
	if bytes == 0 {
		return
	}
	d.charge("convert", d.model.ConvertCost(bytes), bytes)
}

// Retain charges the fused snapshot+sum pass that copies a phase input aside
// for phase-scoped re-execution while computing its checksum vector.
func (d *Device) Retain(bytes int) {
	if bytes == 0 {
		return
	}
	d.charge("retain", d.model.RetainCost(bytes), bytes)
}
