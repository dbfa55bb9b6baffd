// Package heffte is the public facade of the distributed multi-GPU FFT
// library reproduced from "Performance Analysis of Parallel FFT on Large
// Multi-GPU Systems" (Ayala et al., IPDPSW 2022). It re-exports the plan API
// of internal/core together with the simulated machine and MPI runtime the
// library executes on.
//
// A minimal program:
//
//	m := heffte.Summit()
//	w := heffte.NewWorld(m, 12, heffte.WorldOptions{GPUAware: true})
//	w.Run(func(c *heffte.Comm) {
//	    plan, _ := heffte.NewPlan(c, heffte.Config{Global: [3]int{64, 64, 64}})
//	    f := heffte.NewField(plan.InBox())
//	    f.FillRandom(1)
//	    plan.Forward(f)   // f now holds this rank's share of the spectrum
//	    plan.Inverse(f)   // back to the original signal
//	})
//
// Every rank is a goroutine; data moves for real (numerics are exact) while
// time advances on a virtual clock calibrated to Summit/Spock, so performance
// experiments at paper scale (thousands of GPUs) run on a laptop.
//
// The machine is hierarchical, and the library knows it: WorldOptions takes a
// rank→GPU placement map (Placement: block, round-robin, or an explicit
// permutation), which the cost model and the AlgoNodeAware two-level
// all-to-all — gather to a per-node leader over NVLink, aggregated leader
// exchange over the wire, scatter on arrival — exploit. Plan.CommPhases reports the schedule each
// reshape phase resolved to, including the two-level node layout.
package heffte

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Core plan API.
type (
	// Plan is a collectively created distributed 3-D FFT plan (Algorithm 1).
	Plan = core.Plan
	// Config describes the transform: global extents, per-rank input/output
	// boxes, and options.
	Config = core.Config
	// Options tunes decomposition, exchange backend, data layout, and grid
	// shrinking.
	Options = core.Options
	// Field is one rank's share of the distributed array.
	Field = core.Field
	// Decomposition selects slabs, pencils or bricks (Fig. 1).
	Decomposition = core.Decomposition
	// Backend selects the MPI exchange flavour (Table I).
	Backend = core.Backend
	// GridEntry is one row of Table III.
	GridEntry = core.GridEntry
	// RealPlan is a distributed real-to-complex / complex-to-real plan; its
	// input reshapes move 8-byte elements (half the complex bandwidth).
	RealPlan = core.RealPlan
	// RealConfig describes a real transform (real grid in, half grid out).
	RealConfig = core.RealConfig
	// RealField is one rank's share of a distributed real array.
	RealField = core.RealField
	// CollectiveAlgo selects the all-to-all schedule of the Alltoallv
	// backend: AlgoAuto picks, per reshape phase, the schedule priced cheapest
	// by the simulator's schedules.
	CollectiveAlgo = core.CollAlgo
	// CommConfig bundles the collective knobs: algorithm, chunk count, and
	// pack/exchange/unpack overlap. Its zero value is fully automatic.
	CommConfig = core.CommConfig
	// OverlapMode controls whether chunked exchanges pipeline packing with
	// the in-flight transfer.
	OverlapMode = core.OverlapMode
	// CommPhase reports the collective configuration one reshape phase
	// resolved to (see Plan.CommPhases).
	CommPhase = core.CommPhase
	// WirePrecision selects the on-wire element format of intermediate
	// reshape payloads (CommConfig.Wire): full doubles, fp32 or fp16.
	WirePrecision = core.WirePrecision
	// CheckpointStore holds an engine's phase checkpoints for elastic
	// recovery (Options.Checkpoints): resumable per-rank stage-boundary
	// snapshots a shrunken world's plan restarts from via Plan.ResumeBatch.
	CheckpointStore = core.CheckpointStore
)

// NewCheckpointStore returns an empty phase-checkpoint store for
// Options.Checkpoints.
func NewCheckpointStore() *CheckpointStore { return core.NewCheckpointStore() }

// Decompositions.
const (
	DecompAuto    = core.DecompAuto
	DecompSlabs   = core.DecompSlabs
	DecompPencils = core.DecompPencils
	DecompBricks  = core.DecompBricks
)

// Exchange backends.
const (
	BackendAlltoallv   = core.BackendAlltoallv
	BackendAlltoall    = core.BackendAlltoall
	BackendAlltoallw   = core.BackendAlltoallw
	BackendP2P         = core.BackendP2P
	BackendP2PBlocking = core.BackendP2PBlocking
)

// Collective all-to-all schedules (Alltoallv backend).
const (
	AlgoAuto     = core.CollAuto
	AlgoLinear   = core.CollLinear
	AlgoPairwise = core.CollPairwise
	AlgoRing     = core.CollRing
	AlgoBruck    = core.CollBruck
	// AlgoNodeAware is the hierarchical two-level schedule: per-node NVLink
	// gather to a leader, aggregated leader↔leader inter-node rounds, per-node
	// scatter. AlgoAuto considers it automatically on multi-node groups.
	AlgoNodeAware = core.CollNodeAware
)

// Overlap modes for chunked exchanges.
const (
	OverlapAuto = core.OverlapAuto
	OverlapOff  = core.OverlapOff
)

// Wire precisions for intermediate reshape payloads (CommConfig.Wire).
// WireFp64 is exact; WireFp32/WireFp16 halve/quarter the bytes in flight at
// ~6e-8 / ~4.9e-4 relative rounding per compressed exchange. Input/output
// reshapes and the Alltoallw backend always ship full precision.
const (
	WireFp64 = core.WireFp64
	WireFp32 = core.WireFp32
	WireFp16 = core.WireFp16
)

// WireErrorBound returns the analytic relative-error bound of shipping the
// given number of exchanges at wire precision w (zero for WireFp64).
func WireErrorBound(w WirePrecision, exchanges int) float64 {
	return core.WireErrorBound(w, exchanges)
}

// NewPlan collectively creates a plan; all ranks pass identical Config.
func NewPlan(c *Comm, cfg Config) (*Plan, error) { return core.NewPlan(c, cfg) }

// NewField allocates a zero field over a box; NewPhantom carries sizes only.
func NewField(b Box3) *Field   { return core.NewField(b) }
func NewPhantom(b Box3) *Field { return core.NewPhantom(b) }

// NewRealPlan collectively creates a real-to-complex plan.
func NewRealPlan(c *Comm, cfg RealConfig) (*RealPlan, error) { return core.NewRealPlan(c, cfg) }

// NewRealField allocates a zero real field; NewRealPhantom carries sizes
// only.
func NewRealField(b Box3) *RealField   { return core.NewRealField(b) }
func NewRealPhantom(b Box3) *RealField { return core.NewRealPhantom(b) }

// DefaultBricks returns the minimum-surface brick decomposition applications
// typically hand to the library.
func DefaultBricks(nprocs int, global [3]int) []Box3 {
	return core.DefaultBricks(nprocs, global)
}

// TableIII is the paper's grid sequence for the scalability experiments.
var TableIII = core.TableIII

// LookupTableIII returns the Table III entry for a GPU count (synthesized
// for counts not in the table).
func LookupTableIII(gpus int) GridEntry { return core.LookupTableIII(gpus) }

// Index-space machinery.
type (
	// Box3 is a half-open box in global index space.
	Box3 = tensor.Box3
	// ProcGrid is a 3-D grid of processes.
	ProcGrid = tensor.ProcGrid
)

// NewBox returns [lo0,hi0)×[lo1,hi1)×[lo2,hi2).
func NewBox(lo0, lo1, lo2, hi0, hi1, hi2 int) Box3 {
	return tensor.NewBox(lo0, lo1, lo2, hi0, hi1, hi2)
}

// Runtime: machines, worlds, communicators.
type (
	// Machine is the hardware model driving virtual time.
	Machine = machine.Model
	// World is one simulated job; Comm is a rank's communicator handle.
	World = mpisim.World
	// Comm is one rank's handle on a communicator.
	Comm = mpisim.Comm
	// WorldOptions configures GPU-awareness and tracing.
	WorldOptions = mpisim.Options
	// Tracer records per-call virtual-time events.
	Tracer = trace.Tracer
)

// Reduce operations for Comm.Allreduce.
const (
	OpSum = mpisim.OpSum
	OpMax = mpisim.OpMax
	OpMin = mpisim.OpMin
)

// Fault injection (chaos testing). A FaultPlan set in WorldOptions.Faults
// perturbs the simulated job deterministically — stalls, degraded links,
// dropped or corrupted messages, killed ranks — and the affected transforms
// fail with the typed sentinels above instead of hanging. See internal/faults
// for the schedule semantics.
type (
	// FaultPlan is a reproducible fault schedule plus the per-exchange
	// timeout bound enforced while it is active.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault at a (rank, op) coordinate.
	FaultEvent = faults.Event
	// FaultConfig parameterizes GenerateFaults.
	FaultConfig = faults.Config
	// FaultKind enumerates the injectable fault kinds.
	FaultKind = faults.Kind
)

// Fault kinds.
const (
	FaultStall   = faults.Stall
	FaultJitter  = faults.Jitter
	FaultDegrade = faults.Degrade
	FaultDrop    = faults.Drop
	FaultCorrupt = faults.Corrupt
	FaultKill    = faults.Kill
	// FaultCorruptSilent really flips payload bits in delivered buffers with
	// no modeled detection — the silent-data-corruption threat the integrity
	// layer (WorldOptions.Integrity) exists to defeat.
	FaultCorruptSilent = faults.CorruptSilent
)

// GenerateFaults derives a reproducible FaultPlan from a seed: identical
// (seed, size, cfg) yields the identical schedule on every machine.
func GenerateFaults(seed int64, size int, cfg FaultConfig) *FaultPlan {
	return faults.Generate(seed, size, cfg)
}

// Summit returns the paper's 6×V100-per-node machine; Spock the 4×MI100 one.
func Summit() *Machine { return machine.Summit() }
func Spock() *Machine  { return machine.Spock() }

// NewWorld creates a simulated job of the given size.
func NewWorld(m *Machine, size int, opts WorldOptions) *World {
	return mpisim.NewWorld(m, size, opts)
}

// NewTracer returns an empty event tracer to pass in WorldOptions.
func NewTracer() *Tracer { return trace.New() }

// Topology layer (internal/topo): rank→GPU placement maps. A World always
// resolves a topology — block placement over the machine's nodes by default;
// these types let jobs opt into other layouts.
type (
	// Placement maps ranks onto GPU slots; its zero value is block placement.
	Placement = topo.Placement
	// Topology is a world's resolved placement view (Comm.Topo / World.Topo).
	Topology = topo.System
)

// Placement constructors: consecutive ranks fill nodes (block, the layout of
// every paper experiment), deal across nodes (round-robin), or follow an
// explicit rank→GPU-slot permutation.
func PlaceBlock() Placement                   { return topo.Block() }
func PlaceRoundRobin() Placement              { return topo.RoundRobin() }
func PlacePermutation(slotOf []int) Placement { return topo.Permutation(slotOf) }

// IntegrityConfig enables the end-to-end silent-data-corruption defenses:
// checksummed transport envelopes with bounded retransmit, and the ABFT
// phase invariants of the transform engine with phase-scoped re-execution.
// The zero value disables everything (no modeled cost, no protection).
type IntegrityConfig = mpisim.IntegrityConfig

// IntegritySnapshot reports what the integrity machinery did: envelope
// checks and mismatches, block retransmits, invariant checks and failures,
// phase re-executions. Read a world's totals with World.IntegrityCounters.
type IntegritySnapshot = mpisim.IntegritySnapshot
