package mpisim

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
)

func hostBuf(vals ...complex128) Buf {
	return Buf{Data: append([]complex128(nil), vals...), Loc: machine.Host}
}

func devBuf(n int) Buf {
	d := make([]complex128, n)
	for i := range d {
		d[i] = complex(float64(i), 0)
	}
	return Buf{Data: d, Loc: machine.Device}
}

func TestBufSizes(t *testing.T) {
	b := hostBuf(1, 2, 3)
	if b.Elems() != 3 || b.Bytes() != 48 {
		t.Errorf("real buf: elems=%d bytes=%d", b.Elems(), b.Bytes())
	}
	p := Buf{N: 10, Loc: machine.Device}
	if p.Elems() != 10 || p.Bytes() != 160 {
		t.Errorf("phantom buf: elems=%d bytes=%d", p.Elems(), p.Bytes())
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	var got []complex128
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, hostBuf(1+2i, 3+4i))
		case 1:
			b := recv(c, 0, 7)
			got = b.Data
		}
	})
	if len(got) != 2 || got[0] != 1+2i || got[1] != 3+4i {
		t.Errorf("received %v", got)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	// The sender may overwrite its buffer immediately after Isend; the
	// receiver must still see the original contents.
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	var got complex128
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			b := hostBuf(42)
			r := c.Isend(1, 0, b)
			b.Data[0] = -1
			c.wait(r)
		case 1:
			got = recv(c, 0, 0).Data[0]
		}
	})
	if got != 42 {
		t.Errorf("receiver saw overwritten buffer: %v", got)
	}
}

func TestMessageOrderingSameSourceTag(t *testing.T) {
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	var first, second complex128
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, hostBuf(1))
			c.Send(1, 5, hostBuf(2))
		case 1:
			first = recv(c, 0, 5).Data[0]
			second = recv(c, 0, 5).Data[0]
		}
	})
	if first != 1 || second != 2 {
		t.Errorf("messages reordered: %v, %v", first, second)
	}
}

func TestClockAdvancesWithMessage(t *testing.T) {
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	var sClock, rClock float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, devBuf(1<<16))
			sClock = c.Clock()
		} else {
			recv(c, 0, 0)
			rClock = c.Clock()
		}
	})
	if sClock <= 0 {
		t.Error("sender clock did not advance")
	}
	if rClock <= sClock {
		t.Error("receiver should complete after sender's port drains plus latency")
	}
}

func TestVirtualTimeDeterminism(t *testing.T) {
	// The same program must produce bit-identical clocks across runs, no
	// matter how the Go scheduler interleaves ranks.
	run := func() []float64 {
		w := NewWorld(machine.Summit(), 12, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			size := c.Size()
			send := make([]Buf, size)
			for i := range send {
				send[i] = Buf{N: 1000 + 37*c.Rank() + i, Loc: machine.Device}
			}
			alltoallvDense(c, send)
			var reqs []*Request
			for d := 0; d < size; d++ {
				if d != c.Rank() {
					reqs = append(reqs, c.Isend(d, 1, Buf{N: 500, Loc: machine.Device}))
					reqs = append(reqs, c.Irecv(d, 1))
				}
			}
			c.Waitall(reqs)
			c.Barrier()
		})
		return res.Clocks
	}
	a := run()
	for trial := 0; trial < 5; trial++ {
		b := run()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: rank %d clock %g != %g", trial, i, b[i], a[i])
			}
		}
	}
}

func TestIsendOverlapsWithCompute(t *testing.T) {
	// Isend + compute + Wait must be cheaper than Send + compute: the port
	// drains while the rank computes.
	timeWith := func(blocking bool) float64 {
		w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				b := devBuf(1 << 18)
				if blocking {
					c.Send(1, 0, b)
					c.Advance(1e-3)
				} else {
					r := c.Isend(1, 0, b)
					c.Advance(1e-3)
					c.wait(r)
				}
			} else {
				recv(c, 0, 0)
			}
		})
		return res.Clocks[0]
	}
	if nb, bl := timeWith(false), timeWith(true); nb >= bl {
		t.Errorf("non-blocking %g should beat blocking %g via overlap", nb, bl)
	}
}

func TestWaitanyReturnsEarliestCompletion(t *testing.T) {
	w := NewWorld(machine.Summit(), 3, Options{GPUAware: true})
	var order []int
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Rank 2's message is much larger, so rank 1's arrives first in
			// virtual time regardless of real-time ordering.
			reqs := []*Request{c.Irecv(2, 0), c.Irecv(1, 0)}
			i, _ := c.Waitany(reqs)
			order = append(order, i)
			i, _ = c.Waitany(reqs)
			order = append(order, i)
		case 1:
			c.Send(0, 0, hostBuf(1))
		case 2:
			c.Send(0, 0, Buf{Data: make([]complex128, 1<<16), Loc: machine.Host})
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Errorf("Waitany order = %v, want [1 0]", order)
	}
}

func TestSendrecvExchanges(t *testing.T) {
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	got := make([]complex128, 2)
	w.Run(func(c *Comm) {
		me := complex(float64(c.Rank()+1), 0)
		peer := 1 - c.Rank()
		b := sendrecv(c, peer, 0, hostBuf(me), peer, 0)
		got[c.Rank()] = b.Data[0]
	})
	if got[0] != 2 || got[1] != 1 {
		t.Errorf("Sendrecv got %v", got)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := NewWorld(machine.Summit(), 4, Options{GPUAware: true})
	res := w.Run(func(c *Comm) {
		c.Advance(float64(c.Rank()) * 1e-3)
		c.Barrier()
	})
	for i := 1; i < 4; i++ {
		if res.Clocks[i] != res.Clocks[0] {
			t.Errorf("clocks differ after barrier: %v", res.Clocks)
		}
	}
	if res.Clocks[0] < 3e-3 {
		t.Error("barrier release should be at least the slowest entry")
	}
}

func TestAllreduce(t *testing.T) {
	w := NewWorld(machine.Summit(), 6, Options{GPUAware: true})
	sums := make([]float64, 6)
	maxs := make([]float64, 6)
	w.Run(func(c *Comm) {
		sums[c.Rank()] = c.Allreduce(float64(c.Rank()+1), OpSum)
		maxs[c.Rank()] = c.Allreduce(float64(c.Rank()+1), OpMax)
	})
	for r := 0; r < 6; r++ {
		if sums[r] != 21 {
			t.Errorf("rank %d allreduce sum = %g", r, sums[r])
		}
		if maxs[r] != 6 {
			t.Errorf("rank %d allreduce max = %g", r, maxs[r])
		}
	}
}

func TestAlltoallvDataPlacement(t *testing.T) {
	const n = 4
	w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
	recvd := make([][]complex128, n)
	w.Run(func(c *Comm) {
		send := make([]Buf, n)
		for d := 0; d < n; d++ {
			send[d] = hostBuf(complex(float64(c.Rank()*10+d), 0))
		}
		recv := alltoallvDense(c, send)
		row := make([]complex128, n)
		for s := 0; s < n; s++ {
			row[s] = recv[s].Data[0]
		}
		recvd[c.Rank()] = row
	})
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			want := complex(float64(s*10+r), 0)
			if recvd[r][s] != want {
				t.Errorf("rank %d from %d: got %v want %v", r, s, recvd[r][s], want)
			}
		}
	}
}

func TestAlltoallPaddingCostsMore(t *testing.T) {
	// With wildly unequal block sizes, MPI_Alltoall (padded) must cost more
	// than MPI_Alltoallv (exact) — the paper's Fig. 6 observation.
	run := func(padded bool) float64 {
		w := NewWorld(machine.Summit(), 12, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, c.Size())
			for d := range send {
				n := 64
				if d == 0 {
					n = 1 << 16 // one giant block forces heavy padding
				}
				send[d] = Buf{N: n, Loc: machine.Device}
			}
			if padded {
				alltoallDense(c, send)
			} else {
				alltoallvDense(c, send)
			}
		})
		return res.MaxClock
	}
	if pa, ex := run(true), run(false); pa <= ex {
		t.Errorf("padded alltoall %g should cost more than alltoallv %g", pa, ex)
	}
}

func TestAlltoallwCostsMostOnDeviceBuffers(t *testing.T) {
	// On a SpectrumMPI-like stack Alltoallw is not GPU-aware and uses a
	// naive per-message path: it must be the slowest option (Fig. 2).
	run := func(kind string) float64 {
		w := NewWorld(machine.Summit(), 24, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, c.Size())
			for d := range send {
				send[d] = Buf{N: 1 << 12, Loc: machine.Device}
			}
			switch kind {
			case "a2a":
				alltoallDense(c, send)
			case "a2av":
				alltoallvDense(c, send)
			case "a2aw":
				alltoallwDense(c, send)
			}
		})
		return res.MaxClock
	}
	a, v, ww := run("a2a"), run("a2av"), run("a2aw")
	if ww <= a || ww <= v {
		t.Errorf("alltoallw %g should exceed alltoall %g and alltoallv %g", ww, a, v)
	}
}

func TestGPUAwareFasterForLargeMessages(t *testing.T) {
	run := func(aware bool) float64 {
		w := NewWorld(machine.Summit(), 12, Options{GPUAware: aware})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, c.Size())
			for d := range send {
				send[d] = Buf{N: 1 << 18, Loc: machine.Device}
			}
			alltoallvDense(c, send)
		})
		return res.MaxClock
	}
	aware, unaware := run(true), run(false)
	if aware >= unaware {
		t.Errorf("GPU-aware %g should beat staging %g for 4 MiB blocks", aware, unaware)
	}
	// The paper reports ≈30% penalty for disabling GPU-awareness (Fig. 11);
	// check we are in a sane band (10%–100%).
	ratio := unaware / aware
	if ratio < 1.1 || ratio > 1.7 {
		t.Errorf("staging penalty ratio %g outside plausible band", ratio)
	}
}

func TestSplitFormsRowComms(t *testing.T) {
	// 6 ranks → 2 rows of 3; exchange within rows only.
	w := NewWorld(machine.Summit(), 6, Options{GPUAware: true})
	rowSum := make([]float64, 6)
	w.Run(func(c *Comm) {
		row := c.Rank() / 3
		sub := c.Split(row, c.Rank())
		if sub.Size() != 3 {
			t.Errorf("row comm size = %d", sub.Size())
		}
		rowSum[c.Rank()] = sub.Allreduce(float64(c.Rank()), OpSum)
	})
	for r := 0; r < 3; r++ {
		if rowSum[r] != 3 { // 0+1+2
			t.Errorf("rank %d row sum = %g, want 3", r, rowSum[r])
		}
	}
	for r := 3; r < 6; r++ {
		if rowSum[r] != 12 { // 3+4+5
			t.Errorf("rank %d row sum = %g, want 12", r, rowSum[r])
		}
	}
}

func TestSplitNegativeColorExcluded(t *testing.T) {
	w := NewWorld(machine.Summit(), 4, Options{GPUAware: true})
	var nilCount atomic.Int32
	w.Run(func(c *Comm) {
		color := 0
		if c.Rank() >= 2 {
			color = -1
		}
		sub := c.Split(color, c.Rank())
		if sub == nil {
			nilCount.Add(1)
		} else if sub.Size() != 2 {
			t.Errorf("included comm size = %d", sub.Size())
		}
	})
	if nilCount.Load() != 2 {
		t.Errorf("%d ranks got nil comm, want 2", nilCount.Load())
	}
}

func TestSplitIsolatesMatching(t *testing.T) {
	// Messages on a subcommunicator must not match receives on the parent.
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	var fromSub, fromParent complex128
	w.Run(func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			sub.Send(1, 3, hostBuf(100))
			c.Send(1, 3, hostBuf(200))
		} else {
			fromParent = recv(c, 0, 3).Data[0]
			fromSub = recv(sub, 0, 3).Data[0]
		}
	})
	if fromSub != 100 || fromParent != 200 {
		t.Errorf("matching leaked across communicators: sub=%v parent=%v", fromSub, fromParent)
	}
}

// TestDupIsolatesMatching: Split with one color and the rank as key is
// MPI_Comm_dup — the same group in a fresh matching space.
func TestDupIsolatesMatching(t *testing.T) {
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	ok := true
	w.Run(func(c *Comm) {
		d := c.Split(0, c.Rank())
		if d.Size() != c.Size() || d.Rank() != c.Rank() {
			ok = false
			return
		}
		if c.Rank() == 0 {
			d.Send(1, 0, hostBuf(5))
		} else if recv(d, 0, 0).Data[0] != 5 {
			ok = false
		}
	})
	if !ok {
		t.Error("duplicated communicator misbehaved")
	}
}

func TestPhantomAndRealTimingsMatch(t *testing.T) {
	// Identical communication patterns with real vs phantom payloads must
	// produce identical virtual clocks — the property that lets the paper-
	// scale benchmarks run without allocating terabytes.
	run := func(phantom bool) []float64 {
		w := NewWorld(machine.Summit(), 8, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, c.Size())
			for d := range send {
				if phantom {
					send[d] = Buf{N: 2048, Loc: machine.Device}
				} else {
					send[d] = Buf{Data: make([]complex128, 2048), Loc: machine.Device}
				}
			}
			alltoallvDense(c, send)
			peer := c.Rank() ^ 1
			if phantom {
				sendrecv(c, peer, 9, Buf{N: 512, Loc: machine.Device}, peer, 9)
			} else {
				sendrecv(c, peer, 9, Buf{Data: make([]complex128, 512), Loc: machine.Device}, peer, 9)
			}
		})
		return res.Clocks
	}
	ph, re := run(true), run(false)
	for i := range ph {
		if ph[i] != re[i] {
			t.Fatalf("rank %d: phantom clock %g != real clock %g", i, ph[i], re[i])
		}
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	w := NewWorld(machine.Summit(), 12, Options{GPUAware: true}) // 2 nodes
	var intra, inter float64
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			start := c.Clock()
			c.Send(1, 0, devBuf(1<<16)) // same node
			intra = c.Clock() - start
			start = c.Clock()
			c.Send(6, 1, devBuf(1<<16)) // other node
			inter = c.Clock() - start
		case 1:
			recv(c, 0, 0)
		case 6:
			recv(c, 0, 1)
		}
	})
	if intra >= inter {
		t.Errorf("intra-node send %g should be cheaper than inter-node %g", intra, inter)
	}
}

func TestTracerRecordsCalls(t *testing.T) {
	tr := trace.New()
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true, Tracer: tr})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, hostBuf(1))
		} else {
			recv(c, 0, 0)
		}
		c.Barrier()
	})
	names := strings.Join(tr.Names(), ",")
	for _, want := range []string{"MPI_Send", "MPI_Recv", "MPI_Barrier"} {
		if !strings.Contains(names, want) {
			t.Errorf("trace missing %s (have %s)", want, names)
		}
	}
}

func TestRankPanicAbortsWorld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected Run to propagate the rank panic")
		}
	}()
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 blocks on a message that never comes; the abort must wake
		// it instead of deadlocking the test.
		recv(c, 0, 0)
	})
}

func TestAdvanceRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative Advance")
		}
	}()
	w := NewWorld(machine.Summit(), 1, Options{})
	w.Run(func(c *Comm) { c.Advance(-1) })
}

func TestResultMaxClock(t *testing.T) {
	w := NewWorld(machine.Summit(), 3, Options{})
	res := w.Run(func(c *Comm) { c.Advance(float64(c.Rank()) * 2e-3) })
	if math.Abs(res.MaxClock-4e-3) > 1e-12 {
		t.Errorf("MaxClock = %g", res.MaxClock)
	}
}

// TestRendezvousReleasesRound: once the last member of a collective has left
// with its output, the rendezvous holds no round — the round's scratch reaches
// every member's send and receive lists, and through them every delivered
// payload, and the communicator's next collective may never come — and
// neither the round nor the leader's pricing scratch holds a pointer into them
// once back in its pool. The rounds run on one processor so the pools can be
// drained from the test.
func TestRendezvousReleasesRound(t *testing.T) {
	const n = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := NewWorld(machine.Summit(), n, Options{GPUAware: true})
	var rv *rendezvous
	res := w.Run(func(c *Comm) {
		send := func() []Buf {
			bufs := make([]Buf, n)
			for d := range bufs {
				bufs[d] = hostBuf(complex(float64(c.Rank()), float64(d)))
			}
			return bufs
		}
		// A split, a blocking exchange, and last — every round overwrites
		// the scratch the one before it gave back — a schedule (members and
		// their flows) posted non-blocking, which returns before its wait.
		c.Split(c.Rank()%2, 0)
		alltoallvDense(c, send())
		req := ialltoallvDense(c, send(), AlgoRing)
		c.WaitColl(req)
		if c.Rank() == 0 {
			rv = c.core.rv
		}
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if rv.round != nil {
		t.Errorf("rendezvous still holds the finished round: %d inputs, %d outputs", len(rv.round.ins), len(rv.round.outs))
	}
	rounds, prices := 0, 0
	for {
		rd := roundPool.Get().(*round)
		if cap(rd.ins) == 0 {
			break // a fresh one: the pool is empty
		}
		rounds++
		for i, in := range rd.ins[:cap(rd.ins)] {
			if in.blocks != nil || in.recv != nil {
				t.Errorf("pooled round input %d still holds a send or receive list", i)
			}
		}
		for i, out := range rd.outs[:cap(rd.outs)] {
			if out.blocks != nil || out.splitCore != nil {
				t.Errorf("pooled round output %d still holds a receive list or a communicator", i)
			}
		}
	}
	for {
		ps := pricingPool.Get().(*pricing)
		if cap(ps.counts) == 0 {
			break
		}
		prices++
		for i, m := range ps.ex.Members[:cap(ps.ex.Members)] {
			if m.Flows != nil {
				t.Errorf("pooled pricing member %d still holds its flows", i)
			}
		}
		if ps.ex.Topo != nil || ps.ex.M != nil {
			t.Errorf("pooled pricing still holds its exchange's world: %+v", ps.ex)
		}
	}
	// (Under -race sync.Pool drops a quarter of what it is given.)
	if (rounds == 0 || prices == 0) && !raceEnabled {
		t.Errorf("%d rounds and %d pricing scratches came back to their pools, want both", rounds, prices)
	}
}
