package core

import (
	"errors"
	"strings"
	"testing"
)

// TestCheckConfig: the paper's baseline (CollLinear, one chunk, fp64) and the
// zero CommConfig are legal on every backend and plan kind; every setting a
// backend or plan kind does not run is ErrBadConfig naming the backend and
// the setting.
func TestCheckConfig(t *testing.T) {
	all := []Backend{BackendAlltoallv, BackendAlltoall, BackendAlltoallw, BackendP2P, BackendP2PBlocking}
	baseline := CommConfig{Algo: CollLinear, Chunks: 1, Wire: WireFp64}
	grid := [3]int{8, 8, 8}
	for _, b := range all {
		for _, kind := range []planKind{complexPlan, realPlan} {
			for _, cc := range []CommConfig{{}, baseline} {
				if err := checkConfig(grid, Options{Backend: b, Comm: cc}, kind); err != nil {
					t.Errorf("%v, kind %d, %+v: %v", b, kind, cc, err)
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
		{grid, Options{Backend: Backend(9)}, complexPlan, "Backend"},
		{grid, Options{Decomp: Decomposition(7)}, complexPlan, "Decomp"},
		{grid, Options{ShrinkThreshold: -1}, complexPlan, "ShrinkThreshold"},
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
