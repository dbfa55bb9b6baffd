package model

import (
	"math"
	"testing"
)

// summitish mirrors machine.Summit quantities the closed forms consume, for
// a 6-GPU-per-node group (per-flow inter share = 23.5/6 GB/s).
func summitish() CollParams {
	return CollParams{
		Overhead:     12e-6,
		Inject:       1.2e-6,
		Congestion:   0.25,
		InterBW:      23.5e9 / 6,
		NaiveInterBW: 23.5e9 / 6 * 0.7,
		IntraBW:      13e9,
		InterLat:     1.8e-6,
		IntraLat:     0.4e-6,
		MemBW:        900e9,
		LeaderBW:     23.5e9,
		Pipeline:     4,
	}
}

// denseShape is a dense whole-world exchange over n nodes × g ranks.
func denseShape(n, g int, bytes float64) AlltoallShape {
	p := n * g
	return AlltoallShape{
		P:         p,
		Bytes:     bytes,
		InterFrac: float64((n-1)*g) / float64(p-1),
		Nodes:     n,
		PerNode:   g,
	}
}

// TestNodeAwareBeatsFlatOnManyNodes: in the large-message many-node regime
// the n−1 aggregated rounds must undercut every flat schedule's p−1 rounds —
// the regime the node-aware schedule exists for.
func TestNodeAwareBeatsFlatOnManyNodes(t *testing.T) {
	cp := summitish()
	s := denseShape(12, 6, 64<<10)
	na := NodeAwareAlltoallTime(s, cp)
	for _, a := range []AlltoallAlgo{AlltoallLinear, AlltoallPairwise, AlltoallRing, AlltoallBruck} {
		if ft := AlltoallTime(a, s, cp); na >= ft {
			t.Errorf("node-aware %v should beat %v (%v) at 12×6 ranks, 64 KiB blocks", na, a, ft)
		}
	}
}

// TestNodeAwareFlatFallsBackToRing: with one node (or unknown placement, or
// no leader bandwidth) the hierarchical form must cost exactly the ring form.
func TestNodeAwareFlatFallsBackToRing(t *testing.T) {
	cp := summitish()
	for _, s := range []AlltoallShape{
		denseShape(1, 6, 32<<10),
		{P: 36, Bytes: 32 << 10, InterFrac: 0.8}, // Nodes unset
	} {
		if na, ring := NodeAwareAlltoallTime(s, cp), RingAlltoallTime(s, cp); na != ring {
			t.Errorf("shape %+v: node-aware %v != ring %v", s, na, ring)
		}
	}
	cp.LeaderBW = 0
	s := denseShape(4, 6, 32<<10)
	if na, ring := NodeAwareAlltoallTime(s, cp), RingAlltoallTime(s, cp); na != ring {
		t.Errorf("LeaderBW=0: node-aware %v != ring %v", na, ring)
	}
}

// TestPickAlltoallSelectsNodeAware: the selector must reach for the
// hierarchical schedule in its regime and must never propose it without
// placement knowledge.
func TestPickAlltoallSelectsNodeAware(t *testing.T) {
	cp := summitish()
	s := denseShape(12, 6, 64<<10)
	if got := PickAlltoall(s, cp); got != AlltoallNodeAware {
		t.Errorf("12×6 ranks, 64 KiB: picked %v, want node-aware", got)
	}
	flat := s
	flat.Nodes, flat.PerNode = 0, 0
	if got := PickAlltoall(flat, cp); got == AlltoallNodeAware {
		t.Error("placement-blind shape must not pick node-aware")
	}
	noLeader := cp
	noLeader.LeaderBW = 0
	if got := PickAlltoall(s, noLeader); got == AlltoallNodeAware {
		t.Error("LeaderBW=0 must not pick node-aware")
	}
}

// TestNodeAwarePipelineMonotone: deeper fragment pipelining can only shrink
// the exposed gather/scatter edges, never grow the total.
func TestNodeAwarePipelineMonotone(t *testing.T) {
	cp := summitish()
	s := denseShape(8, 6, 128<<10)
	prev := 0.0
	for i, pipe := range []float64{0, 1, 2, 4, 8} {
		cp.Pipeline = pipe
		tt := NodeAwareAlltoallTime(s, cp)
		if i > 0 && tt > prev {
			t.Errorf("pipeline %v: time %v > shallower %v", pipe, tt, prev)
		}
		prev = tt
	}
}

// bruckLoopCount counts the cyclic distances d in [1, p) with bit k set by
// looking at every one — the loop the closed-form count replaced, kept as the
// reference.
func bruckLoopCount(p, k int) int {
	cnt := 0
	for d := 1; d < p; d++ {
		if d&(1<<k) != 0 {
			cnt++
		}
	}
	return cnt
}

// bruckLoopTime is BruckAlltoallTime over the loop count.
func bruckLoopTime(s AlltoallShape, cp CollParams) float64 {
	s = s.norm()
	if s.P <= 1 || s.Dst == 0 {
		return 0
	}
	mbar := float64(s.Dst) * s.Bytes / float64(s.P-1)
	bw := cp.IntraBW
	if s.InterFrac > 0 {
		bw = cp.InterBW
	}
	lat := s.maxLat(cp)
	t := cp.Overhead
	steps := int(math.Ceil(math.Log2(float64(s.P))))
	for k := 0; k < steps; k++ {
		agg := mbar * float64(bruckLoopCount(s.P, k))
		t += cp.Inject + lat + agg/bw + 2*agg/cp.MemBW
	}
	return t
}

// TestBruckForwardedClosedForm: the arithmetic count of distances with bit k
// set equals the loop over every distance, for every group size up to 4096
// and every round (and a few rounds past the last, where it must be zero);
// and BruckAlltoallTime is the same float, bit for bit, as the loop form on
// the shapes this file uses.
func TestBruckForwardedClosedForm(t *testing.T) {
	for p := 1; p <= 4096; p++ {
		for k := 0; k < 14; k++ {
			if got, want := bruckForwarded(p, k), bruckLoopCount(p, k); got != want {
				t.Fatalf("bruckForwarded(%d, %d) = %d, loop counts %d", p, k, got, want)
			}
		}
	}
	cp := summitish()
	for _, s := range []AlltoallShape{
		denseShape(12, 6, 64<<10),
		denseShape(1, 6, 32<<10),
		denseShape(4, 6, 32<<10),
		denseShape(8, 6, 128<<10),
		{P: 36, Bytes: 32 << 10, InterFrac: 0.8},
		{P: 768, Dst: 23, Rounds: 40, Bytes: 5461.3, InterFrac: 0.93, Nodes: 128, PerNode: 6},
		{P: 1, Bytes: 1 << 10},
	} {
		if got, want := BruckAlltoallTime(s, cp), bruckLoopTime(s, cp); got != want {
			t.Errorf("shape %+v: BruckAlltoallTime = %v, loop form = %v", s, got, want)
		}
	}
}
