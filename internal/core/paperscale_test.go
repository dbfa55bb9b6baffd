package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
)

// tableIIIPlan is the paper's configuration for a GPU count: 512³, the
// Table III input/output bricks and, for pencils, its P×Q grid.
func tableIIIPlan(ranks int, decomp Decomposition) Config {
	e := LookupTableIII(ranks)
	global := [3]int{512, 512, 512}
	cfg := Config{
		Global:   global,
		InBoxes:  e.InOut.Decompose(global),
		OutBoxes: e.InOut.Decompose(global),
		Opts:     Options{Decomp: decomp, Backend: BackendAlltoallv},
	}
	if decomp == DecompPencils {
		cfg.Opts.PQ = [2]int{e.P, e.Q}
	}
	return cfg
}

// TestPaperScaleHeapBudget runs the paper's largest configuration — 512³ on
// 3072 GPUs (512 Summit nodes), Table III bricks, phantom fields — through
// plan creation, a forward and an inverse transform, with pencils (48×64) and
// with slabs, and holds the live heap at the closing barrier (every rank's
// plan still referenced) under 256 MB (it measures ≈ 68 MB). With plan and
// exchange state sized by the communicator instead of by the blocks that
// exist, this configuration needed more than 7.9 GB.
func TestPaperScaleHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("3072-rank world")
	}
	if raceEnabled {
		t.Skip("3072 rank goroutines are too slow under the race detector")
	}
	const (
		ranks  = 3072
		budget = 256 << 20
	)
	for _, decomp := range []Decomposition{DecompPencils, DecompSlabs} {
		t.Run(decomp.String(), func(t *testing.T) {
			cfg := tableIIIPlan(ranks, decomp)
			exchanges := make([]int, ranks)
			var heap uint64
			w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
			res := w.Run(func(c *mpisim.Comm) {
				p, err := NewPlan(c, cfg)
				if err != nil {
					c.Fail(err)
				}
				f := NewPhantom(p.InBox())
				if err := p.Forward(f); err != nil {
					c.Fail(err)
				}
				if err := p.Inverse(f); err != nil {
					c.Fail(err)
				}
				exchanges[c.Rank()] = p.Exchanges()
				c.Barrier()
				if c.Rank() == 0 {
					// Two collections: the first moves the pools' exchange
					// vectors and round scratch to their victim caches, the
					// second frees them — a cache, not plan state.
					runtime.GC()
					runtime.GC()
					var m runtime.MemStats
					runtime.ReadMemStats(&m)
					heap = m.HeapAlloc
				}
				// Every plan stays live until rank 0 has measured.
				c.Barrier()
				runtime.KeepAlive(p)
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			for r, n := range exchanges {
				if n == 0 || n != exchanges[0] {
					t.Fatalf("rank %d reports %d exchanges, rank 0 reports %d", r, n, exchanges[0])
				}
			}
			t.Logf("%v: live heap %.1f MB at the closing barrier, %d exchanges, virtual makespan %.3f ms",
				decomp, float64(heap)/(1<<20), exchanges[0], 1e3*res.MaxClock)
			if heap > budget {
				t.Errorf("live heap %.1f MB at the closing barrier exceeds the %d MB budget", float64(heap)/(1<<20), budget>>20)
			}
		})
	}
}

// TestForwardAllocScalesWithPeers: what one phantom Forward allocates, summed
// over the ranks of a 96-rank Table III plan, is bounded by a constant per
// block exchanged (Σ over ranks and reshapes of send + receive peers) — the
// exchange vectors are sparse end to end. With communicator-length vectors it
// grew with ranks².
func TestForwardAllocScalesWithPeers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are not meaningful under -race")
	}
	const (
		ranks = 96
		// Measured 16: the send and receive lists and the round scratch come
		// from pools, and what is left is the leaders' per-round completion
		// vectors. Building every list fresh it measured 113 — one 128-byte
		// entry per block at each end — and the bound leaves that much room for
		// pools a collection emptied mid-call.
		bytesPerPeer = 174
	)
	cfg := tableIIIPlan(ranks, DecompPencils)
	var peers atomic.Int64
	var before, after runtime.MemStats
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			c.Fail(err)
		}
		for _, st := range p.stages {
			if st.kind == stageReshape {
				peers.Add(int64(len(st.rs.sendPeers) + len(st.rs.recvPeers)))
			}
		}
		f := NewPhantom(p.InBox())
		run := func(transform func(*Field) error) {
			if err := transform(f); err != nil {
				c.Fail(err)
			}
		}
		run(p.Forward) // warm-up pair
		run(p.Inverse)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		run(p.Forward)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		c.Barrier()
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	got, n := after.TotalAlloc-before.TotalAlloc, uint64(peers.Load())
	t.Logf("one Forward on %d ranks: %d bytes allocated over %d peer blocks = %.0f bytes/peer", ranks, got, n, float64(got)/float64(n))
	if n == 0 || got > bytesPerPeer*n {
		t.Errorf("one Forward allocated %d bytes over %d peer blocks: %.0f bytes/peer, want <= %d",
			got, n, float64(got)/float64(n), bytesPerPeer)
	}
}
