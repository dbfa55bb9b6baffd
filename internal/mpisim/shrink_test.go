package mpisim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
)

// TestShrinkBuildsSurvivorWorld: after a kill aborts the world, Shrink yields
// an epoch-bumped world over exactly the survivors, carrying their physical
// GPU slots and lineage, with every clock advanced to the kill time plus the
// agreement cost — and that world executes collectives cleanly.
func TestShrinkBuildsSurvivorWorld(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 2, Op: 1}}}
	w := NewWorld(machine.Summit(), 4, Options{GPUAware: true, Faults: plan})
	res := w.Run(func(c *Comm) {
		c.Protect(func() {
			for {
				send := make([]Buf, c.Size())
				for d := range send {
					send[d] = hostBuf(complex(float64(c.Rank()), float64(d)))
				}
				alltoallvDense(c, send)
			}
		})
	})
	if !errors.Is(res.Err, ErrRankFailed) {
		t.Fatalf("Result.Err = %v, want ErrRankFailed", res.Err)
	}
	if got := w.DeadRanks(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("DeadRanks = %v, want [2]", got)
	}
	if got := w.Survivors(); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("Survivors = %v, want [0 1 3]", got)
	}

	nw, err := w.Shrink()
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if nw.Epoch() != 1 || nw.Size() != 3 {
		t.Errorf("survivor world: epoch %d size %d, want 1 and 3", nw.Epoch(), nw.Size())
	}
	if got := nw.OriginRanks(); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Errorf("OriginRanks = %v, want [0 1 3]", got)
	}
	// Dead GPUs drop out of the placement: new rank i keeps old rank
	// survivors[i]'s slot.
	oldSlots := w.opts.Placement.Slots(w.model, w.size)
	newSlots := nw.opts.Placement.Slots(nw.model, nw.size)
	want := []int{oldSlots[0], oldSlots[1], oldSlots[3]}
	if !reflect.DeepEqual(newSlots, want) {
		t.Errorf("survivor slots = %v, want %v", newSlots, want)
	}
	// Deterministic resume instant, identical on every survivor.
	resume := w.KillClock() + w.AgreeCost(3)
	if resume <= 0 {
		t.Fatalf("resume instant %g, want > 0", resume)
	}
	wantAgree := w.model.HostOverheadColl + 2*math.Ceil(math.Log2(3))*w.model.InterLatency
	if w.AgreeCost(3) != wantAgree {
		t.Errorf("AgreeCost(3) = %g, want %g", w.AgreeCost(3), wantAgree)
	}
	for r, st := range nw.states {
		if st.clock != resume || st.portFreeAt != resume {
			t.Errorf("rank %d resume clock %g/%g, want %g", r, st.clock, st.portFreeAt, resume)
		}
	}

	// The survivor world is healthy and runs collectives.
	nres := nw.Run(func(c *Comm) {
		send := make([]Buf, c.Size())
		for d := range send {
			send[d] = hostBuf(complex(float64(c.Rank()), float64(d)))
		}
		alltoallvDense(c, send)
	})
	if nres.Err != nil {
		t.Errorf("survivor world run: %v", nres.Err)
	}

	// The old handle is superseded.
	if _, err := w.Shrink(); !errors.Is(err, ErrShrunk) {
		t.Errorf("second Shrink err = %v, want ErrShrunk", err)
	}
}

// TestShrinkRequiresDeaths: shrinking a healthy world is an error, and the
// failed attempt does not supersede the handle for a later legitimate shrink.
func TestShrinkRequiresDeaths(t *testing.T) {
	w := NewWorld(machine.Summit(), 4, Options{GPUAware: true})
	if _, err := w.Shrink(); err == nil || errors.Is(err, ErrShrunk) {
		t.Fatalf("Shrink on healthy world: err = %v, want a no-deaths error", err)
	}
	w.noteDead(1, 0.5)
	if _, err := w.Shrink(); err != nil {
		t.Fatalf("Shrink after recorded death: %v", err)
	}
}

// TestRemapFaults: carrying a fault plan across a shrink drops dead-rank
// events, re-addresses survivors to their new comm ranks, and rebases op
// coordinates by what each survivor had already consumed.
func TestRemapFaults(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{
		{Kind: faults.Kill, Rank: 2, Op: 5},                       // dead rank: dropped
		{Kind: faults.Stall, Rank: 3, Op: 7, Delay: 1},            // future: rebased
		{Kind: faults.Drop, Rank: 1, Op: 0},                       // past: dropped
		{Kind: faults.CorruptSilent, Rank: 3, Op: 2, Brick: true}, // probe-rebased
	}}
	w := NewWorld(machine.Summit(), 4, Options{GPUAware: true, Faults: plan})
	w.noteDead(2, 1.0)
	// Simulate consumed progress at the abort: rank 3 had run 4 exchange ops
	// and 1 brick probe; rank 1 had run 2 ops.
	w.states[3].ops = 4
	w.states[3].probes = 1
	w.states[1].ops = 2
	np := w.remapFaults([]int{0, 1, 3})
	if np == nil {
		t.Fatal("remapFaults returned nil with future events pending")
	}
	if len(np.Events) != 2 {
		t.Fatalf("remapped events = %+v, want 2", np.Events)
	}
	stall, probe := np.Events[0], np.Events[1]
	if stall.Kind != faults.Stall || stall.Rank != 2 || stall.Op != 3 {
		t.Errorf("stall remapped to rank %d op %d, want rank 2 op 3", stall.Rank, stall.Op)
	}
	if probe.Kind != faults.CorruptSilent || probe.Rank != 2 || probe.Op != 1 {
		t.Errorf("brick probe remapped to rank %d op %d, want rank 2 op 1", probe.Rank, probe.Op)
	}
}
