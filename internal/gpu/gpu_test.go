package gpu

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

// withDevice runs f on rank 0 of a single-rank world and returns the tracer.
func withDevice(t *testing.T, m *machine.Model, f func(d *Device, c *mpisim.Comm)) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	w := mpisim.NewWorld(m, 1, mpisim.Options{Tracer: tr})
	w.Run(func(c *mpisim.Comm) { f(New(c), c) })
	return tr
}

func TestVendorNameByMachine(t *testing.T) {
	for m, want := range map[*machine.Model]string{machine.Summit(): "cufft_1d", machine.Spock(): "rocfft_1d"} {
		tr := withDevice(t, m, func(d *Device, c *mpisim.Comm) { d.FFT1D(64, 1, false) })
		if names := tr.Names(); len(names) != 1 || names[0] != want {
			t.Errorf("%s FFT events = %v, want [%s]", m.Name, names, want)
		}
	}
}

func TestKernelsAdvanceClockAndTrace(t *testing.T) {
	tr := withDevice(t, machine.Summit(), func(d *Device, c *mpisim.Comm) {
		before := c.Clock()
		d.FFT1D(512, 100, false)
		d.FFT1D(512, 100, true)
		d.FFT2D(64, 64, 4, false)
		d.Pack(1<<20, false)
		d.Unpack(1<<20, true)
		d.Copy(1 << 16)
		if c.Clock() <= before {
			t.Error("kernels did not advance the clock")
		}
	})
	totals := tr.TotalByName(0)
	for _, name := range []string{"cufft_1d", "cufft_1d_strided", "cufft_2d", "pack", "unpack", "copy"} {
		if totals[name] <= 0 {
			t.Errorf("missing trace for %s (have %v)", name, tr.Names())
		}
	}
}

func TestZeroWorkIsFree(t *testing.T) {
	tr := withDevice(t, machine.Summit(), func(d *Device, c *mpisim.Comm) {
		d.FFT1D(512, 0, false)
		d.FFT2D(8, 8, 0, true)
		d.Pack(0, false)
		d.Unpack(0, true)
		d.Copy(0)
		if c.Clock() != 0 {
			t.Errorf("zero work advanced clock to %g", c.Clock())
		}
	})
	if len(tr.Events()) != 0 {
		t.Errorf("zero work recorded %d events", len(tr.Events()))
	}
}

func TestTransposedPackCostsMore(t *testing.T) {
	var plain, transposed float64
	withDevice(t, machine.Summit(), func(d *Device, c *mpisim.Comm) {
		t0 := c.Clock()
		d.Pack(1<<20, false)
		plain = c.Clock() - t0
		t0 = c.Clock()
		d.Pack(1<<20, true)
		transposed = c.Clock() - t0
	})
	if transposed <= plain {
		t.Errorf("transposed pack %g should exceed plain pack %g", transposed, plain)
	}
}
