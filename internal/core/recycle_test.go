package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

// Recycled exchange vectors (blockPool): a list that went back to the pool
// while something still read or wrote it would hand one list to two users.

// drainBlockPool empties every class of the exchange-vector pool that this
// processor can see, so the next lists are fresh allocations.
func drainBlockPool() {
	for c := range blockPool.classes {
		for blockPool.classes[c].Get() != nil {
		}
	}
}

// recycleCase is one execution path of the reuse-safety matrix: plan options,
// the world's integrity configuration and fault plan, and whether the batch
// runs through the per-entry Ialltoallv pipeline.
type recycleCase struct {
	name  string
	opts  Options
	wopts mpisim.Options
	async bool
}

// recycleRun is what one world left behind: every rank's output bits and the
// virtual cost of its last transform, and the world's integrity counters.
type recycleRun struct {
	bits  [][]uint64
	exec  []ExecInfo
	integ mpisim.IntegritySnapshot
}

// runRecycle transforms a batch of three fields forward, back and forward
// again on a fresh world; with drain, every rank empties the exchange-vector
// pool before each call, so no list it draws has been used before.
func runRecycle(tc recycleCase, drain bool) recycleRun {
	r := recycleRun{bits: make([][]uint64, viewsRanks), exec: make([]ExecInfo, viewsRanks)}
	wopts := tc.wopts
	wopts.GPUAware = true
	w := mpisim.NewWorld(machine.Summit(), viewsRanks, wopts)
	res := w.Run(func(c *mpisim.Comm) {
		me := c.Rank()
		p, err := NewPlan(c, Config{Global: viewsGlobal, Opts: tc.opts})
		if err != nil {
			c.Fail(err)
		}
		fs := make([]*Field, 3)
		for i := range fs {
			fs[i] = NewField(p.InBox())
			fillEntry(fs[i].Data, me, i)
		}
		forward, inverse := p.ForwardBatch, p.InverseBatch
		if tc.async {
			forward, inverse = p.ForwardPipelined, p.InversePipelined
		}
		for _, call := range []func([]*Field) error{forward, inverse, forward} {
			if drain {
				drainBlockPool()
			}
			if err := call(fs); err != nil {
				c.Fail(err)
			}
		}
		r.bits[me], r.exec[me] = bitsOf(fs), p.LastExec()
	})
	if res.Err != nil {
		panic(fmt.Sprintf("%s: %v", tc.name, res.Err))
	}
	r.integ = w.IntegrityCounters().Snapshot()
	return r
}

// TestRecycledListsMatchFresh: recycling send and receive lists changes
// nothing a transform computes or costs. Every path on which a list could go
// back to the pool too early — depth-2 pipelining (chunk ci+1 posted before
// chunk ci is unpacked, each holding its own receive list), the serial chunk
// loop, the per-entry Ialltoallv pipeline, P2P (the send list lives until
// Waitall), and silent corruption, where a faulty sender's list is filled out
// and each receiver repairs or flips its own copy of the block — produces the
// same output bits and the same virtual clocks as the same run drawing only
// fresh lists. make race runs it at several GOMAXPROCS values.
func TestRecycledListsMatchFresh(t *testing.T) {
	pipelined := Options{Decomp: DecompPencils, Backend: BackendAlltoallv, Comm: CommConfig{Chunks: 3}}
	silent := &faults.Plan{Events: []faults.Event{
		{Kind: faults.CorruptSilent, Rank: 1, Op: 1, Count: 1},
		{Kind: faults.CorruptSilent, Rank: 5, Op: 4, Count: 1},
	}}
	checksums := mpisim.IntegrityConfig{Checksums: true}
	cases := []recycleCase{
		{name: "chunks3-overlap", opts: pipelined},
		{name: "chunks4-serial", opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, Comm: CommConfig{Chunks: 4, Overlap: OverlapOff}}},
		{name: "slabs/chunks3-overlap", opts: Options{Decomp: DecompSlabs, Backend: BackendAlltoallv, Comm: CommConfig{Chunks: 3}}},
		{name: "per-entry-ialltoallv", opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv}, async: true},
		{name: "alltoall", opts: Options{Decomp: DecompPencils, Backend: BackendAlltoall}},
		{name: "p2p", opts: Options{Decomp: DecompPencils, Backend: BackendP2P}},
		{name: "silent-flip/chunks3-overlap", opts: pipelined, wopts: mpisim.Options{Faults: silent}},
		{name: "silent-repair/chunks3-overlap", opts: pipelined, wopts: mpisim.Options{Faults: silent, Integrity: checksums}},
		{name: "silent-flip/per-entry-ialltoallv", opts: Options{Backend: BackendAlltoallv}, async: true, wopts: mpisim.Options{Faults: silent}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recycled, fresh := runRecycle(tc, false), runRecycle(tc, true)
			for r := 0; r < viewsRanks; r++ {
				if len(fresh.bits[r]) == 0 {
					t.Fatalf("rank %d: no output", r)
				}
				if !slices.Equal(recycled.bits[r], fresh.bits[r]) {
					t.Errorf("rank %d: outputs differ between recycled and fresh lists", r)
				}
				if recycled.exec[r] != fresh.exec[r] {
					t.Errorf("rank %d: virtual cost %+v with recycled lists, %+v with fresh ones", r, recycled.exec[r], fresh.exec[r])
				}
			}
			// The faults fired: a repair is a retransmit, a flip lands in the
			// output.
			if tc.wopts.Faults == nil {
				return
			}
			if tc.wopts.Integrity.Checksums {
				if recycled.integ.Retransmits == 0 || recycled.integ != fresh.integ {
					t.Errorf("retransmits: %d recycled, %d fresh; want equal and nonzero", recycled.integ.Retransmits, fresh.integ.Retransmits)
				}
				return
			}
			clean := runRecycle(recycleCase{name: tc.name + "/clean", opts: tc.opts, async: tc.async}, false)
			if slices.EqualFunc(recycled.bits, clean.bits, slices.Equal) {
				t.Error("the silent corruption left the output as a clean run's")
			}
		})
	}
}
