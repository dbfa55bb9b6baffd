package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
)

// TestForwardSteadyStateAllocs pins the zero-allocation guarantee of the
// execution engine: after warm-up, Forward and Inverse on a live plan perform
// no per-call allocations — kernel scratch comes from plan-held pools, the
// single-field batch rides in plan scratch, and (in multi-rank runs) staging
// buffers cycle through the process-wide pool.
//
// A single-rank plan is the pure compute path (no reshape stages), which is
// the path the guarantee is strongest on; the multi-rank staging pool is
// exercised by the benchmarks and the numerics tests.
func TestForwardSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := mpisim.NewWorld(machine.Summit(), 1, mpisim.Options{GPUAware: true})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{32, 32, 32}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := NewField(p.InBox())
		f.FillRandom(1)
		// Warm the kernel-scratch and staging pools.
		for i := 0; i < 3; i++ {
			if err := p.Forward(f); err != nil {
				t.Errorf("warm-up Forward: %v", err)
				return
			}
			if err := p.Inverse(f); err != nil {
				t.Errorf("warm-up Inverse: %v", err)
				return
			}
		}
		fwd := testing.AllocsPerRun(50, func() {
			if err := p.Forward(f); err != nil {
				panic(err)
			}
		})
		inv := testing.AllocsPerRun(50, func() {
			if err := p.Inverse(f); err != nil {
				panic(err)
			}
		})
		// Average < 1: a stray GC may drop a sync.Pool entry mid-run, whose
		// amortized refill must not fail the regression.
		if fwd >= 1 {
			t.Errorf("steady-state Forward allocates %.2f times per call, want 0", fwd)
		}
		if inv >= 1 {
			t.Errorf("steady-state Inverse allocates %.2f times per call, want 0", inv)
		}
	})
}

// TestMultiRankSteadyStateAllocs is the multi-rank half of the guarantee
// above: after warm-up, the exchange rounds of a 24-rank phantom pencil plan
// with the Table III bricks in and out (four all-to-all reshapes per
// transform) build no exchange vector — a bare exchange is priced from its
// pattern — and draw no new rendezvous round or pricing scratch, so what a
// transform allocates per rank is a fraction of one small object. Phantom
// fields leave the payload out, so the exchange bookkeeping is all there is
// to measure. The collector is off while it measures, so no pool refill lands
// in the count.
//
// Measured: 38–95 bytes and 0.43–0.59 allocations per transform per rank at
// 1–8 processors (the schedules' per-round completion vectors); with the
// exchange vectors pooled but built every round it was 40–160 bytes and
// 0.4–0.7 allocations, and built fresh every round 4 329 bytes and 8.25.
func TestMultiRankSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const (
		ranks = 24
		pairs = 20
		batch = 2
		// Bounds per transform per rank.
		maxBytes  = 256
		maxAllocs = 1
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := tableIIIPlan(ranks, DecompPencils)
	var before, after runtime.MemStats
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			c.Fail(err)
		}
		fs := make([]*Field, batch)
		for i := range fs {
			fs[i] = NewPhantom(p.InBox())
		}
		round := func(n int) {
			for i := 0; i < n; i++ {
				if err := p.ForwardBatch(fs); err != nil {
					c.Fail(err)
				}
				if err := p.InverseBatch(fs); err != nil {
					c.Fail(err)
				}
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
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	per := float64(2 * pairs * ranks)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / per
	allocs := float64(after.Mallocs-before.Mallocs) / per
	t.Logf("%d ranks: %.0f bytes, %.2f allocations per transform per rank", ranks, bytes, allocs)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("steady-state transforms allocate %.0f bytes in %.2f allocations per rank, want <= %d bytes and <= %d",
			bytes, allocs, maxBytes, maxAllocs)
	}
}
