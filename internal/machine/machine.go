// Package machine models the hardware of the systems used in the paper —
// Summit (2×POWER9 + 6×V100 per node, dual-rail EDR InfiniBand) and Spock
// (4×MI100 per node, Slingshot) — as a small set of bandwidth/latency/overhead
// parameters consumed by the virtual-time MPI simulator (internal/mpisim) and
// the GPU execution model (internal/gpu).
//
// The model is LogGP-flavoured: a message pays a software posting overhead, is
// serialized through its sender's injection port at the path bandwidth, and
// arrives one latency later. Device buffers sent without GPU-aware MPI stage
// through the PCIe bus on both ends (device → host → host → device, as the
// paper describes for heFFTe's -no-gpu-aware flag). Inter-node flows share
// the node's injection bandwidth among the node's ranks and are degraded by a
// mild fabric saturation factor as the job spans more nodes — the effect that
// causes the exponential decrease of average per-process bandwidth in Fig. 4.
package machine

import (
	"fmt"
	"math"
)

// Location says where a message buffer lives. Transfers from Device buffers
// either use GPU-aware MPI (GPUDirect-style) or must stage through the host.
type Location int

const (
	Host Location = iota
	Device
)

func (l Location) String() string {
	if l == Host {
		return "host"
	}
	return "device"
}

// MsgClass distinguishes the software stack a message goes through: the
// generic point-to-point path, or MPI_Alltoallw, a naive Isend/Irecv loop
// (the paper: "its MPI_Alltoallw is simply composed of a non-blocking
// MPI_Isend and MPI_Irecv algorithm for any array size"). Vendor collectives
// (MPI_Alltoall/v) are priced by mpisim's collective pricers from the
// *OverheadColl fields, not per message.
type MsgClass int

const (
	ClassP2P MsgClass = iota
	ClassAlltoallw
)

// Model holds all hardware parameters. Fields are exported so experiments can
// build custom machines; use Summit and Spock for the paper's systems.
type Model struct {
	Name        string
	GPUsPerNode int

	// Link parameters (bytes/second, seconds).
	IntraBW         float64 // per-flow GPU↔GPU bandwidth inside a node (NVLink / xGMI)
	IntraLatency    float64 // intra-node message latency
	NodeInjectionBW float64 // inter-node bandwidth of one node, shared by its ranks
	InterLatency    float64 // inter-node wire latency (paper assumes 1 µs on Summit)

	// Per-message software posting overheads (seconds).
	HostOverheadP2P   float64 // generic P2P path, host buffer
	DeviceOverheadP2P float64 // generic P2P path, GPU-aware device buffer (RDMA registration)
	// DeviceP2PCongestion is the additional per-message cost of GPU-aware
	// point-to-point transfers per node spanned by the job: GPUDirect RDMA
	// keeps per-peer registrations and queue-pair state whose management
	// degrades as a rank talks to endpoints across more of the machine.
	// This phenomenological term (calibrated, seconds/node/message) is what
	// makes GPU-aware P2P "fail to keep scaling" at large node counts while
	// host-staged P2P and the vendor collectives continue (paper, Figs. 8/9
	// and Section IV.C).
	DeviceP2PCongestion float64
	HostOverheadColl    float64 // optimized collective path, host buffer
	DeviceOverheadColl  float64 // optimized collective path, device buffer
	// CollInject is the per-fragment posting cost inside a scheduled
	// collective (pairwise/ring/Bruck all-to-all): once the collective call
	// is set up, queueing each additional fragment on the progress engine
	// costs far less than a fresh per-destination posting (HostOverheadColl /
	// DeviceOverheadColl), which is exactly why the scheduled algorithms beat
	// the naive per-destination loop at moderate message counts.
	CollInject float64
	// CollPipeline is the fragment pipeline depth of hierarchical (two-level)
	// collectives: each aggregated per-node round is cut into this many
	// fragments, so the NVLink gather/scatter hops stream under the wire
	// transfer cut-through style and only about one fragment per side stays
	// exposed. 0 or 1 means store-and-forward rounds (whole slices exposed).
	CollPipeline int
	// CollCongestion is the fractional per-flow bandwidth loss of
	// *unsynchronized* streamed schedules (the ring/spread all-to-all).
	// Cyclic-distance ordering keeps the instantaneous traffic pattern
	// near-permutation even without round barriers; only rank drift — faster
	// ranks running ahead of slower ones, momentarily doubling up on a
	// receiver — breaks it, shedding a couple percent of bandwidth to
	// adaptive routing. Synchronized schedules (pairwise exchange, Bruck)
	// barrier every round and do not pay it — which is why pairwise wins
	// back the large-message regime. Applied to inter-node flows only.
	CollCongestion    float64
	AlltoallwOverhead float64 // naive Alltoallw per-message setup (derived datatypes)
	// AlltoallwBWFactor scales the bandwidth Alltoallw messages achieve:
	// the naive Isend/Irecv loop cannot drive the topology-aware schedules
	// (NVLink ordering, rail binding) the optimized Alltoall(v) algorithms
	// use — "MPI_Alltoallw is far less optimized compared to
	// MPI_Alltoall(v)" (paper, Section II).
	AlltoallwBWFactor float64

	// Staging path for non-GPU-aware transfers of device buffers.
	PCIeBW          float64 // device↔host copy bandwidth
	StagingOverhead float64 // fixed cost per staging copy (launch + sync)
	// StagingOverlap is the fraction of bulk staging time hidden behind the
	// network transfer when a collective stages its whole buffer (chunked
	// copies pipeline with sends). Per-message staging (P2P, Alltoallw)
	// never overlaps. Calibrated so disabling GPU-awareness costs ≈30%
	// (paper, Fig. 11).
	StagingOverlap float64

	// AlltoallwGPUAware reports whether the MPI distribution provides a
	// GPU-aware MPI_Alltoallw. SpectrumMPI 10.4 does not (paper, Section II),
	// so device buffers passed to Alltoallw always stage through the host.
	// MVAPICH-GDR does.
	AlltoallwGPUAware bool

	// Fabric saturation: inter-node per-flow bandwidth is multiplied by
	// 1/(1+(nodes/SaturationRef)^SaturationExp). Models adaptive-routing and
	// switch contention losses as the job spans more of the fat tree.
	SaturationRef float64
	SaturationExp float64

	GPU GPU
}

// Summit returns the model of the Summit supercomputer used for all V100
// experiments in the paper: 6 V100 per node, NVLink 50 GB/s bidirectional
// peaks (≈40 GB/s effective per flow), dual-rail EDR InfiniBand with a
// practical node bandwidth of 23.5 GB/s, SpectrumMPI software costs.
func Summit() *Model {
	return &Model{
		Name:        "summit",
		GPUsPerNode: 6,

		// Effective NVLink bandwidth per flow under all-to-all traffic: each
		// V100 has direct NVLink to only two peers (25 GB/s each way);
		// transfers to the other three GPUs route through the POWER9, so
		// sustained per-flow bandwidth in a full exchange is far below link
		// peak.
		IntraBW:         13e9,
		IntraLatency:    3e-6,
		NodeInjectionBW: 23.5e9,
		InterLatency:    1e-6,

		HostOverheadP2P:     5e-6,
		DeviceOverheadP2P:   20e-6,
		DeviceP2PCongestion: 0.35e-6,
		HostOverheadColl:    2e-6,
		DeviceOverheadColl:  4e-6,
		CollInject:          0.3e-6,
		CollPipeline:        4,
		CollCongestion:      0.02,
		AlltoallwOverhead:   25e-6,
		AlltoallwBWFactor:   0.55,

		PCIeBW:          14e9,
		StagingOverhead: 6e-6,
		StagingOverlap:  0.5,

		AlltoallwGPUAware: false, // SpectrumMPI 10.4

		SaturationRef: 96,
		SaturationExp: 1.2,

		GPU: GPU{
			Name:           "V100",
			FFTThroughput:  1.4e12, // effective flop/s of batched cuFFT fp64
			KernelLaunch:   5e-6,
			StridedPenalty: 3.0,
			StridedSetup:   28e-6, // per-call spike of strided cuFFT (Fig. 10)
			MemBW:          780e9, // effective HBM2 bandwidth for pack/unpack
			PCIeBW:         14e9,

			ChecksumBW:       1.5e12, // fused into pack/unpack read streams
			ChecksumOverhead: 0.1e-6,
		},
	}
}

// Spock returns the model of the Spock early-access system (4 MI100 per
// node, Slingshot-10). Spock's interconnect has lower node bandwidth than
// Summit, and rocFFT throughput is modelled slightly below cuFFT's.
func Spock() *Model {
	return &Model{
		Name:        "spock",
		GPUsPerNode: 4,

		IntraBW:         12e9, // effective xGMI per flow under all-to-all traffic
		IntraLatency:    3e-6,
		NodeInjectionBW: 12.5e9, // Slingshot-10 single NIC
		InterLatency:    1.5e-6,

		HostOverheadP2P:     5e-6,
		DeviceOverheadP2P:   22e-6,
		DeviceP2PCongestion: 0.4e-6,
		HostOverheadColl:    2e-6,
		DeviceOverheadColl:  5e-6,
		CollInject:          0.4e-6,
		CollPipeline:        4,
		CollCongestion:      0.03,
		AlltoallwOverhead:   25e-6,
		AlltoallwBWFactor:   0.55,

		PCIeBW:          20e9, // PCIe gen4
		StagingOverhead: 6e-6,
		StagingOverlap:  0.5,

		AlltoallwGPUAware: true, // MPICH-based stacks on Spock

		SaturationRef: 96,
		SaturationExp: 1.2,

		GPU: GPU{
			Name:           "MI100",
			FFTThroughput:  1.1e12,
			KernelLaunch:   6e-6,
			StridedPenalty: 3.2,
			StridedSetup:   30e-6,
			MemBW:          820e9,
			PCIeBW:         20e9,

			ChecksumBW:       1.6e12,
			ChecksumOverhead: 0.12e-6,
		},
	}
}

// Validate checks that all parameters are physically sensible.
func (m *Model) Validate() error {
	pos := func(v float64, name string) error {
		if v <= 0 {
			return fmt.Errorf("machine %q: %s must be positive, got %g", m.Name, name, v)
		}
		return nil
	}
	if m.GPUsPerNode < 1 {
		return fmt.Errorf("machine %q: GPUsPerNode must be >= 1, got %d", m.Name, m.GPUsPerNode)
	}
	checks := []struct {
		v    float64
		name string
	}{
		{m.IntraBW, "IntraBW"}, {m.NodeInjectionBW, "NodeInjectionBW"},
		{m.PCIeBW, "PCIeBW"}, {m.GPU.FFTThroughput, "GPU.FFTThroughput"},
		{m.GPU.MemBW, "GPU.MemBW"},
	}
	for _, c := range checks {
		if err := pos(c.v, c.name); err != nil {
			return err
		}
	}
	return nil
}

// Node reports the node index hosting the given rank (ranks are placed in
// blocks of GPUsPerNode, 1 MPI process per GPU as in all paper experiments).
func (m *Model) Node(rank int) int { return rank / m.GPUsPerNode }

// SameNode reports whether two ranks share a node.
func (m *Model) SameNode(a, b int) bool { return m.Node(a) == m.Node(b) }

// Nodes reports how many nodes a job of the given size spans.
func (m *Model) Nodes(size int) int {
	return (size + m.GPUsPerNode - 1) / m.GPUsPerNode
}

// SaturationFactor returns the multiplier (≤1) applied to inter-node per-flow
// bandwidth for a job spanning the given number of nodes.
func (m *Model) SaturationFactor(nodes int) float64 {
	if nodes <= 1 {
		return 1
	}
	x := float64(nodes) / m.SaturationRef
	return 1 / (1 + math.Pow(x, m.SaturationExp))
}

// Residents reports how many ranks of a job of the given size live on the
// given node under block placement: GPUsPerNode on full nodes, fewer on a
// ragged last node or when the whole job fits inside one node.
func (m *Model) Residents(node, size int) int {
	r := size - node*m.GPUsPerNode
	if r > m.GPUsPerNode {
		r = m.GPUsPerNode
	}
	if r < 1 {
		r = 1
	}
	return r
}

// FlowBW returns the per-flow bandwidth between two ranks in a job of the
// given size (block placement). Intra-node flows use the NVLink/xGMI
// bandwidth; inter-node flows share the sending node's injection bandwidth
// among its *actual* resident ranks — a ragged last node or a sub-node job
// leaves each rank a larger share — and are degraded by the saturation
// factor. Placement-aware callers should route through topo.System instead.
func (m *Model) FlowBW(src, dst, size int) float64 {
	if m.SameNode(src, dst) {
		return m.IntraBW
	}
	share := m.NodeInjectionBW / float64(m.Residents(m.Node(src), size))
	return share * m.SaturationFactor(m.Nodes(size))
}

// Latency returns the wire latency between two ranks.
func (m *Model) Latency(src, dst int) float64 {
	if m.SameNode(src, dst) {
		return m.IntraLatency
	}
	return m.InterLatency
}

// PathCost decomposes the cost of one message. See package comment for the
// semantics of each leg.
type PathCost struct {
	PostOverhead float64 // sender software cost to post the operation
	PreStage     float64 // sender-side D2H staging (non-GPU-aware device buffers)
	PortTime     float64 // occupancy of the sender's injection port
	Latency      float64 // wire latency after leaving the port
	PostStage    float64 // receiver-side H2D staging
	RecvOverhead float64 // receiver software cost to complete the match
}

// Total returns the end-to-end time of the message when nothing overlaps.
func (c PathCost) Total() float64 {
	return c.PostOverhead + c.PreStage + c.PortTime + c.Latency + c.PostStage + c.RecvOverhead
}

// Path is a resolved route between two ranks: whether it stays on-node, the
// per-flow bandwidth the message is charged port time at, and the wire
// latency. The topology layer (internal/topo) resolves paths under arbitrary
// placements and fabrics; PathBetween resolves the legacy block layout.
type Path struct {
	SameNode bool
	BW       float64
	Latency  float64
}

// PathBetween resolves the naive-traffic path between two ranks of a job of
// the given size under block placement.
func (m *Model) PathBetween(src, dst, size int) Path {
	return Path{
		SameNode: m.SameNode(src, dst),
		BW:       m.FlowBW(src, dst, size),
		Latency:  m.Latency(src, dst),
	}
}

// MsgCost computes the cost decomposition for one message of the given size
// between two ranks of a job of `size` ranks under block placement. dev says
// the buffers are device-resident; aware says the MPI stack may use
// GPU-aware transfers (the heFFTe -no-gpu-aware flag turns this off).
func (m *Model) MsgCost(bytes int, src, dst, size int, dev, aware bool, class MsgClass) PathCost {
	return m.MsgCostOn(bytes, m.PathBetween(src, dst, size), m.Nodes(size), dev, aware, class)
}

// MsgCostOn computes the cost decomposition for one message over an already
// resolved path. nodes is the number of nodes the job spans (the GPU-aware
// P2P congestion term scales with it).
func (m *Model) MsgCostOn(bytes int, p Path, nodes int, dev, aware bool, class MsgClass) PathCost {
	var c PathCost
	b := float64(bytes)

	staged := dev && !m.gpuAwareFor(class, aware)
	effDev := dev && !staged // message travels as a device buffer

	switch class {
	case ClassP2P:
		if effDev {
			c.PostOverhead = m.DeviceOverheadP2P + m.DeviceP2PCongestion*float64(nodes)
			c.RecvOverhead = m.DeviceOverheadP2P / 2
		} else {
			c.PostOverhead = m.HostOverheadP2P
			c.RecvOverhead = m.HostOverheadP2P / 2
		}
	case ClassAlltoallw:
		c.PostOverhead = m.AlltoallwOverhead
	}

	if staged {
		c.PreStage = m.StagingOverhead + b/m.PCIeBW
		c.PostStage = m.StagingOverhead + b/m.PCIeBW
	}
	bw := p.BW
	if class == ClassAlltoallw && m.AlltoallwBWFactor > 0 {
		bw *= m.AlltoallwBWFactor
	}
	c.PortTime = b / bw
	c.Latency = p.Latency
	return c
}

// gpuAwareFor reports whether transfers of the given class can be GPU-aware
// under this MPI stack when the user enables GPU-awareness.
func (m *Model) gpuAwareFor(class MsgClass, aware bool) bool {
	if !aware {
		return false
	}
	if class == ClassAlltoallw {
		return m.AlltoallwGPUAware
	}
	return true
}
