package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, m := range []*Model{Summit(), Spock()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	m := Summit()
	m.GPUsPerNode = 0
	if m.Validate() == nil {
		t.Error("expected error for GPUsPerNode=0")
	}
	m = Summit()
	m.IntraBW = -1
	if m.Validate() == nil {
		t.Error("expected error for negative IntraBW")
	}
}

func TestNodePlacement(t *testing.T) {
	m := Summit()
	if m.Node(0) != 0 || m.Node(5) != 0 || m.Node(6) != 1 || m.Node(23) != 3 {
		t.Error("Summit node placement wrong for 6 GPUs/node")
	}
	if !m.SameNode(0, 5) || m.SameNode(5, 6) {
		t.Error("SameNode wrong")
	}
	if m.Nodes(24) != 4 || m.Nodes(25) != 5 || m.Nodes(1) != 1 {
		t.Error("Nodes count wrong")
	}
	s := Spock()
	if s.Node(3) != 0 || s.Node(4) != 1 {
		t.Error("Spock node placement wrong for 4 GPUs/node")
	}
}

func TestSaturationMonotone(t *testing.T) {
	m := Summit()
	prev := m.SaturationFactor(1)
	if prev != 1 {
		t.Errorf("SaturationFactor(1) = %g, want 1", prev)
	}
	for n := 2; n <= 512; n *= 2 {
		f := m.SaturationFactor(n)
		if f >= prev || f <= 0 || f > 1 {
			t.Errorf("SaturationFactor(%d) = %g not in (0,%g)", n, f, prev)
		}
		prev = f
	}
}

func TestFlowBW(t *testing.T) {
	m := Summit()
	if bw := m.FlowBW(0, 1, 12); bw != m.IntraBW {
		t.Errorf("intra-node flow bw = %g", bw)
	}
	inter := m.FlowBW(0, 6, 12)
	if inter >= m.NodeInjectionBW/float64(m.GPUsPerNode) {
		t.Errorf("inter-node flow bw %g not reduced by sharing+saturation", inter)
	}
	// More nodes → lower per-flow inter bandwidth.
	if m.FlowBW(0, 6, 768) >= m.FlowBW(0, 6, 12) {
		t.Error("saturation did not reduce inter-node bandwidth")
	}
}

func TestResidents(t *testing.T) {
	m := Summit() // 6 GPUs/node
	if m.Residents(0, 12) != 6 || m.Residents(1, 12) != 6 {
		t.Error("full nodes should host GPUsPerNode ranks")
	}
	if m.Residents(1, 8) != 2 {
		t.Errorf("ragged last node of size 8 hosts %d ranks, want 2", m.Residents(1, 8))
	}
	if m.Residents(0, 3) != 3 {
		t.Errorf("sub-node job: %d residents, want 3", m.Residents(0, 3))
	}
}

// TestFlowBWRaggedNode verifies the residents-aware sharing: ranks on a
// partially occupied node split the injection bandwidth fewer ways.
func TestFlowBWRaggedNode(t *testing.T) {
	m := Summit()
	full := m.FlowBW(0, 6, 12)  // sender on a full node (6 residents)
	ragged := m.FlowBW(6, 0, 8) // sender on the ragged node (2 residents)
	if ragged <= full {
		t.Errorf("ragged-node sender bw %g should exceed full-node %g", ragged, full)
	}
	want := m.NodeInjectionBW / 2 * m.SaturationFactor(2)
	if math.Abs(ragged-want)/want > 1e-12 {
		t.Errorf("ragged sender bw = %g, want %g", ragged, want)
	}
}

// TestMsgCostOnMatchesMsgCost pins the wrapper relationship: MsgCost is
// MsgCostOn over the block-placement path.
func TestMsgCostOnMatchesMsgCost(t *testing.T) {
	m := Summit()
	for _, dev := range []bool{false, true} {
		for _, aware := range []bool{false, true} {
			for _, class := range []MsgClass{ClassP2P, ClassAlltoallw} {
				got := m.MsgCostOn(1<<20, m.PathBetween(0, 7, 24), m.Nodes(24), dev, aware, class)
				want := m.MsgCost(1<<20, 0, 7, 24, dev, aware, class)
				if got != want {
					t.Errorf("MsgCostOn mismatch dev=%v aware=%v class=%d: %+v vs %+v",
						dev, aware, class, got, want)
				}
			}
		}
	}
}

func TestMsgCostStagingOnlyWhenNotAware(t *testing.T) {
	m := Summit()
	aware := m.MsgCost(1<<20, 0, 6, 12, true, true, ClassP2P)
	unaware := m.MsgCost(1<<20, 0, 6, 12, true, false, ClassP2P)
	host := m.MsgCost(1<<20, 0, 6, 12, false, true, ClassP2P)
	if aware.PreStage != 0 || aware.PostStage != 0 {
		t.Error("GPU-aware transfer should not stage")
	}
	if unaware.PreStage == 0 || unaware.PostStage == 0 {
		t.Error("non-GPU-aware device transfer must stage through PCIe")
	}
	if host.PreStage != 0 {
		t.Error("host buffers never stage")
	}
	// GPU-aware device messages pay a higher posting overhead than host.
	if aware.PostOverhead <= host.PostOverhead {
		t.Error("device P2P overhead should exceed host overhead")
	}
}

// TestGPUAwareCrossover verifies the calibration that reproduces Figs. 8/9/11:
// for large messages GPU-aware wins (staging dominates); for tiny messages
// the host path wins (posting overhead dominates).
func TestGPUAwareCrossover(t *testing.T) {
	m := Summit()
	big := 4 << 20
	if m.MsgCost(big, 0, 6, 12, true, true, ClassP2P).Total() >=
		m.MsgCost(big, 0, 6, 12, true, false, ClassP2P).Total() {
		t.Error("GPU-aware should win for 4 MiB messages")
	}
	small := 1 << 10
	if m.MsgCost(small, 0, 6, 12, true, true, ClassP2P).Total() <=
		m.MsgCost(small, 0, 6, 12, true, false, ClassP2P).Total() {
		t.Error("host staging should win for 1 KiB messages")
	}
}

func TestAlltoallwNeverGPUAwareOnSummit(t *testing.T) {
	m := Summit()
	c := m.MsgCost(1<<20, 0, 6, 12, true, true, ClassAlltoallw)
	if c.PreStage == 0 {
		t.Error("SpectrumMPI-like Alltoallw must stage device buffers even when GPU-awareness is on")
	}
	s := Spock()
	c = s.MsgCost(1<<20, 0, 4, 8, true, true, ClassAlltoallw)
	if c.PreStage != 0 {
		t.Error("MVAPICH-like Alltoallw should be GPU-aware on Spock")
	}
}

func TestPathCostTotal(t *testing.T) {
	c := PathCost{PostOverhead: 1, PreStage: 2, PortTime: 3, Latency: 4, PostStage: 5, RecvOverhead: 6}
	if c.Total() != 21 {
		t.Errorf("Total = %g", c.Total())
	}
}

func TestMsgCostMonotoneInBytes(t *testing.T) {
	m := Summit()
	f := func(b1, b2 uint32) bool {
		x, y := int(b1%(1<<24)), int(b2%(1<<24))
		if x > y {
			x, y = y, x
		}
		cx := m.MsgCost(x, 0, 7, 24, true, true, ClassP2P).Total()
		cy := m.MsgCost(y, 0, 7, 24, true, true, ClassP2P).Total()
		return cx <= cy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGPUFFTCost(t *testing.T) {
	g := &Summit().GPU
	if g.FFT1DCost(512, 0, false) != 0 {
		t.Error("zero batch should cost nothing")
	}
	contig := g.FFT1DCost(512, 1024, false)
	strided := g.FFT1DCost(512, 1024, true)
	if strided <= contig {
		t.Error("strided FFT must cost more than contiguous (Fig. 10)")
	}
	// Strided spike: even tiny strided batches pay the setup.
	if g.FFT1DCost(512, 1, true) < g.StridedSetup {
		t.Error("strided setup spike missing")
	}
	// Cost grows with batch.
	if g.FFT1DCost(512, 2048, false) <= contig {
		t.Error("FFT cost should grow with batch size")
	}
}

func TestGPUFFT2DCost(t *testing.T) {
	g := &Summit().GPU
	c1 := g.FFT2DCost(64, 64, 8, false)
	c2 := g.FFT2DCost(64, 64, 16, false)
	if c2 <= c1 {
		t.Error("2-D FFT cost should grow with batch")
	}
	// A 2-D n×n transform should cost roughly as much as 2n 1-D transforms.
	oneD := g.FFT1DCost(64, 2*64*8, false)
	if math.Abs(c1-oneD)/oneD > 0.5 {
		t.Errorf("2-D cost %g too far from equivalent 1-D batches %g", c1, oneD)
	}
}

func TestGPUPackAndCopyCosts(t *testing.T) {
	g := &Summit().GPU
	if g.PackCost(0) != 0 || g.CopyCost(0) != 0 || g.ReorderCost(0) != 0 || g.PointwiseCost(0) != 0 {
		t.Error("zero-byte kernels should be free")
	}
	if g.ReorderCost(1<<20) <= g.PackCost(1<<20) {
		t.Error("transposition should cost more than linear pack")
	}
	wantCopy := g.KernelLaunch + float64(1<<20)/g.PCIeBW
	if got := g.CopyCost(1 << 20); math.Abs(got-wantCopy) > 1e-12 {
		t.Errorf("CopyCost = %g, want %g", got, wantCopy)
	}
}

func TestDeviceP2PCongestionGrowsWithNodes(t *testing.T) {
	m := Summit()
	small := m.MsgCost(1<<12, 0, 6, 12, true, true, ClassP2P).PostOverhead
	big := m.MsgCost(1<<12, 0, 6, 768, true, true, ClassP2P).PostOverhead
	if big <= small {
		t.Error("GPU-aware P2P posting cost must grow with job size (RDMA congestion)")
	}
	// Host-staged P2P is unaffected.
	if m.MsgCost(1<<12, 0, 6, 768, true, false, ClassP2P).PostOverhead !=
		m.MsgCost(1<<12, 0, 6, 12, true, false, ClassP2P).PostOverhead {
		t.Error("host-path P2P overhead should not depend on job size")
	}
}

func TestAlltoallwBandwidthPenalty(t *testing.T) {
	m := Spock() // GPU-aware Alltoallw, so no staging muddies the comparison
	p2p := m.MsgCost(1<<20, 0, 4, 8, true, true, ClassP2P)
	w := m.MsgCost(1<<20, 0, 4, 8, true, true, ClassAlltoallw)
	if w.PortTime <= p2p.PortTime {
		t.Error("Alltoallw must achieve lower bandwidth than the point-to-point path")
	}
	ratio := w.PortTime / p2p.PortTime
	if math.Abs(ratio-1/m.AlltoallwBWFactor) > 1e-9 {
		t.Errorf("bandwidth penalty ratio %g != 1/factor %g", ratio, 1/m.AlltoallwBWFactor)
	}
}

func TestFFTR2CCost(t *testing.T) {
	g := &Summit().GPU
	if g.FFTR2CCost(512, 0) != 0 {
		t.Error("zero batch should be free")
	}
	r2c := g.FFTR2CCost(512, 100)
	c2c := g.FFT1DCost(512, 100, false)
	if r2c >= c2c {
		t.Error("R2C must cost less than a complex transform of the same length")
	}
	if r2c < c2c/2 {
		t.Error("R2C should cost a bit more than half a complex transform")
	}
}
