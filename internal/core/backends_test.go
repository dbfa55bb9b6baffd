package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
)

// TestCheckConfig: the paper's baseline (CollLinear, one chunk, fp64) and the
// zero CommConfig, with a zero or a fully set PQ, are legal on every backend
// and plan kind; every setting a backend or plan kind does not run, a PQ
// with a negative entry or exactly one zero, and a PQ on a decomposition
// without a pencil grid (slabs, bricks), is ErrBadConfig naming the backend
// and the setting.
func TestCheckConfig(t *testing.T) {
	all := []Backend{BackendAlltoallv, BackendAlltoall, BackendAlltoallw, BackendP2P, BackendP2PBlocking}
	baseline := CommConfig{Algo: CollLinear, Chunks: 1, Wire: WireFp64}
	grid := [3]int{8, 8, 8}
	for _, b := range all {
		for _, kind := range []planKind{complexPlan, realPlan} {
			for _, cc := range []CommConfig{{}, baseline} {
				for _, pq := range [][2]int{{}, {2, 3}} {
					if err := checkConfig(grid, Options{Backend: b, Comm: cc, PQ: pq}, kind); err != nil {
						t.Errorf("%v, kind %d, %+v, PQ %v: %v", b, kind, cc, pq, err)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		global  [3]int
		opts    Options
		kind    planKind
		setting string
	}{
		{[3]int{8, 0, 8}, Options{}, complexPlan, "Global"},
		{[3]int{8, 8, 7}, Options{}, realPlan, "Global"},
		{[3]int{1 << 32, 1 << 32, 1}, Options{}, complexPlan, "Global"},
		{[3]int{1 << 20, 1 << 20, 1 << 20}, Options{}, pipelined, "Global"},
		{grid, Options{Backend: Backend(9)}, complexPlan, "Backend"},
		{grid, Options{Decomp: Decomposition(7)}, complexPlan, "Decomp"},
		{grid, Options{ShrinkThreshold: -1}, complexPlan, "ShrinkThreshold"},
		{grid, Options{PQ: [2]int{3, 0}}, complexPlan, "PQ"},
		{grid, Options{PQ: [2]int{0, 7}}, realPlan, "PQ"},
		{grid, Options{PQ: [2]int{-2, -3}}, complexPlan, "PQ"},
		{grid, Options{PQ: [2]int{-1, 6}}, pipelined, "PQ"},
		{grid, Options{Decomp: DecompSlabs, PQ: [2]int{2, 3}}, complexPlan, "PQ"},
		{grid, Options{Decomp: DecompBricks, PQ: [2]int{2, 3}}, complexPlan, "PQ"},
		{grid, Options{Decomp: DecompBricks, PQ: [2]int{6, 1}}, pipelined, "PQ"},
		{grid, Options{Comm: CommConfig{Algo: CollAlgo(6)}}, complexPlan, "Comm.Algo"},
		{grid, Options{Comm: CommConfig{Overlap: OverlapMode(2)}}, complexPlan, "Comm.Overlap"},
		{grid, Options{Comm: CommConfig{Wire: WirePrecision(3)}}, complexPlan, "Comm.Wire"},
		{grid, Options{Backend: BackendP2P, Comm: CommConfig{Algo: CollRing}}, complexPlan, "Comm.Algo"},
		{grid, Options{Backend: BackendAlltoall, Comm: CommConfig{Algo: CollNodeAware}}, realPlan, "Comm.Algo"},
		{grid, Options{Backend: BackendAlltoallw, Comm: CommConfig{Chunks: 2}}, complexPlan, "Comm.Chunks"},
		{grid, Options{Backend: BackendP2PBlocking, Comm: CommConfig{Overlap: OverlapOff}}, complexPlan, "Comm.Overlap"},
		{grid, Options{Backend: BackendAlltoallw, Comm: CommConfig{Wire: WireFp16}}, realPlan, "Comm.Wire"},
		{grid, Options{Checkpoints: NewCheckpointStore()}, realPlan, "Checkpoints"},
		{grid, Options{ShrinkThreshold: 8}, realPlan, "ShrinkThreshold"},
		{grid, Options{Decomp: DecompSlabs}, realPlan, "Decomp"},
		{grid, Options{Backend: BackendAlltoall}, pipelined, "pipelined"},
		{grid, Options{Comm: CommConfig{Chunks: 3}}, pipelined, "Comm.Chunks"},
		{grid, Options{Comm: CommConfig{Overlap: OverlapOff}}, pipelined, "Comm.Overlap"},
		{grid, Options{Checkpoints: NewCheckpointStore()}, pipelined, "Checkpoints"},
	} {
		err := checkConfig(tc.global, tc.opts, tc.kind)
		if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "backend "+tc.opts.Backend.String()) ||
			!strings.Contains(err.Error(), tc.setting) {
			t.Errorf("%+v, kind %d: err = %v, want ErrBadConfig naming backend %v and %s", tc.opts, tc.kind, err, tc.opts.Backend, tc.setting)
		}
	}
}

// TestOversizedGridIsBadConfig: a grid whose complex128 array's byte count
// overflows an int is ErrBadConfig before anything is sized for it —
// {1<<32, 1<<32, 1} wraps its element count to 0, so no tiling or length
// check downstream would see it. checkConfig is asked first, so a plan is
// only built on a grid it rejects; the largest grid it accepts is held apart.
func TestOversizedGridIsBadConfig(t *testing.T) {
	if err := checkConfig([3]int{1 << 29, 1 << 29, 1}, Options{}, complexPlan); err != nil {
		t.Errorf("a 2^58-element grid (2^62 bytes) must pass: %v", err)
	}
	for _, g := range [][3]int{{1 << 32, 1 << 32, 1}, {1 << 31, 1 << 28, 2}} {
		for _, kind := range []planKind{complexPlan, realPlan} {
			if err := checkConfig(g, Options{}, kind); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("%v, kind %d: checkConfig = %v, want ErrBadConfig", g, kind, err)
			}
		}
		w := mpisim.NewWorld(machine.Summit(), 2, mpisim.Options{})
		w.Run(func(c *mpisim.Comm) {
			if _, err := NewPlan(c, Config{Global: g}); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%v: NewPlan = %v, want ErrBadConfig", g, err)
			}
			if _, err := NewRealPlan(c, RealConfig{Global: g}); !errors.Is(err, ErrBadConfig) {
				t.Errorf("%v: NewRealPlan = %v, want ErrBadConfig", g, err)
			}
		})
	}
}
