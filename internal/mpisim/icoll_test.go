package mpisim

import (
	"testing"

	"repro/internal/machine"
)

func TestIalltoallvDeliversData(t *testing.T) {
	const n = 4
	w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
	recvd := make([][]complex128, n)
	w.Run(func(c *Comm) {
		send := make([]Buf, n)
		for d := 0; d < n; d++ {
			send[d] = hostBuf(complex(float64(c.Rank()*10+d), 0))
		}
		req := c.Ialltoallv(send)
		recv := c.WaitColl(req)
		row := make([]complex128, n)
		for s := 0; s < n; s++ {
			row[s] = recv[s].Data[0]
		}
		recvd[c.Rank()] = row
	})
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			if want := complex(float64(s*10+r), 0); recvd[r][s] != want {
				t.Errorf("rank %d from %d: got %v want %v", r, s, recvd[r][s], want)
			}
		}
	}
}

// TestIalltoallvOverlapsCompute: compute performed between post and wait
// must hide behind the exchange, so the async version beats blocking
// Alltoallv + compute — the overlap effect of refs [28]/[34]/[35].
func TestIalltoallvOverlapsCompute(t *testing.T) {
	const n = 12
	const compute = 2e-3
	run := func(async bool) float64 {
		w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, n)
			for d := range send {
				send[d] = Buf{N: 1 << 16, Loc: machine.Device}
			}
			if async {
				req := c.Ialltoallv(send)
				c.Advance(compute)
				c.WaitColl(req)
			} else {
				alltoallvDense(c, send)
				c.Advance(compute)
			}
		})
		return res.MaxClock
	}
	async, blocking := run(true), run(false)
	if async >= blocking {
		t.Errorf("async %g should beat blocking %g via overlap", async, blocking)
	}
	// With compute shorter than the exchange, the async time should be close
	// to the exchange alone.
	exch := run(true) - 0 // async already ≈ exchange when compute hides fully
	if blocking-async < compute*0.9 {
		t.Errorf("overlap hid only %g of %g compute", blocking-async, compute)
	}
	_ = exch
}

// TestIalltoallvMatchesBlockingCompletion: with no compute in between, Wait
// must land on the same virtual instant as the blocking call.
func TestIalltoallvMatchesBlockingCompletion(t *testing.T) {
	const n = 6
	run := func(async bool) []float64 {
		w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, n)
			for d := range send {
				send[d] = Buf{N: 4096 + 17*c.Rank(), Loc: machine.Device}
			}
			if async {
				c.WaitColl(c.Ialltoallv(send))
			} else {
				alltoallvDense(c, send)
			}
		})
		return res.Clocks
	}
	a, b := run(true), run(false)
	for i := range a {
		// The async path adds only the tiny posting overhead.
		if diff := a[i] - b[i]; diff < 0 || diff > 1e-5 {
			t.Errorf("rank %d: async completion %g vs blocking %g", i, a[i], b[i])
		}
	}
}

func TestWaitCollPanicsOnReuse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic from Run propagating the rank panic")
		}
	}()
	w := NewWorld(machine.Summit(), 1, Options{})
	w.Run(func(c *Comm) {
		req := c.Ialltoallv([]Buf{{N: 1}})
		c.WaitColl(req)
		c.WaitColl(req)
	})
}

func TestRealBufBytes(t *testing.T) {
	rb := Buf{Real: []float64{1, 2, 3}}
	if rb.Bytes() != 24 || rb.Elems() != 3 {
		t.Errorf("real buf: bytes=%d elems=%d", rb.Bytes(), rb.Elems())
	}
	pr := Buf{N: 10, PhantomReal: true}
	if pr.Bytes() != 80 {
		t.Errorf("phantom real buf: bytes=%d", pr.Bytes())
	}
	// Clones are deep.
	cl := rb.clone()
	cl.Real[0] = -1
	if rb.Real[0] != 1 {
		t.Error("clone aliases the original")
	}
}
