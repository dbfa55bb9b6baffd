// Package core implements the paper's primary contribution: a distributed
// 3-D FFT for multi-GPU systems (Algorithm 1 of the paper, the heFFTe
// engine), covering slab, pencil and brick decompositions, four MPI exchange
// strategies (MPI_Alltoall, MPI_Alltoallv, MPI_Alltoallw/Algorithm 2, and
// blocking/non-blocking Point-to-Point), contiguous (transposed) and strided
// local FFTs, FFT grid shrinking, and batched transforms with
// communication/computation overlap.
//
// A Plan is created collectively by all ranks of a communicator and executed
// with Forward/Inverse (or the batched variants). Payloads may be real
// complex data — numerically validated against a serial FFT — or phantom
// (size-only), which produces identical virtual timings without allocating
// paper-scale arrays.
package core

import "fmt"

// Decomposition selects the parallelization strategy of Fig. 1.
type Decomposition int

const (
	// DecompAuto picks slabs or pencils using the bandwidth model of
	// Section III (equations 2–3), as the paper's tuning methodology does.
	DecompAuto Decomposition = iota
	// DecompSlabs distributes one axis; each rank computes 2-D FFTs and one
	// exchange moves the data (scales only to min(N) processes).
	DecompSlabs
	// DecompPencils distributes two axes over a P×Q grid; each rank computes
	// 1-D FFTs with two internal exchanges.
	DecompPencils
	// DecompBricks keeps brick-shaped (3-D grid) input/output around a
	// pencil pipeline, giving the four communication phases of Table III.
	DecompBricks
)

func (d Decomposition) String() string {
	return enumName("decomposition", int(d), "auto", "slabs", "pencils", "bricks")
}

// enumName returns names[v], or kind(v) for a value outside the enum.
func enumName(kind string, v int, names ...string) string {
	if v < 0 || v >= len(names) {
		return fmt.Sprintf("%s(%d)", kind, v)
	}
	return names[v]
}

// CollAlgo selects the all-to-all schedule of a scheduling backend's
// reshapes (Capabilities.Schedules). See internal/mpisim for the schedules;
// CollAuto's choice is priced by the simulator's schedules themselves
// (pickAlgo, comm.go).
type CollAlgo int

const (
	// CollAuto picks per reshape phase: the schedule that moves the phase's
	// byte matrix soonest on an idle group, priced by the simulator's
	// schedules.
	CollAuto CollAlgo = iota
	// CollLinear forces the legacy per-destination posting schedule.
	CollLinear
	// CollPairwise forces the synchronized pairwise exchange.
	CollPairwise
	// CollRing forces the streamed ring schedule.
	CollRing
	// CollBruck forces the Bruck log-step schedule.
	CollBruck
	// CollNodeAware forces the hierarchical two-level schedule: per-node
	// NVLink gather to a leader, aggregated leader↔leader inter-node rounds,
	// per-node scatter. See internal/mpisim's nodeAwareAlgo.
	CollNodeAware
)

func (a CollAlgo) String() string {
	return enumName("collalgo", int(a), "auto", "linear", "pairwise", "ring", "bruck", "node-aware")
}

// OverlapMode controls whether chunked reshapes overlap packing of chunk
// k+1 with the in-flight exchange of chunk k.
type OverlapMode int

const (
	// OverlapAuto overlaps whenever the reshape is chunked.
	OverlapAuto OverlapMode = iota
	// OverlapOff packs, exchanges and unpacks each chunk serially.
	OverlapOff
)

func (o OverlapMode) String() string { return enumName("overlap", int(o), "auto", "off") }

// CommConfig tunes the communication layer of a plan: which all-to-all
// schedule reshapes use, how many chunks the pack→exchange→unpack sequence is
// split into, whether chunk packing overlaps in-flight exchanges, and the wire
// precision. The zero value (auto/auto/auto/fp64) takes the schedule the
// simulator prices cheapest and pipelines only when the exchanged volume is
// large enough to hide the per-chunk kernel-launch and injection costs.
// A setting the backend does not run (its Capabilities) is ErrBadConfig at
// plan build; the zero value and CollLinear, one chunk, fp64 run everywhere.
type CommConfig struct {
	// Algo selects the all-to-all schedule; CollAuto picks per phase.
	Algo CollAlgo
	// Chunks splits each reshape into this many pipeline chunks. Zero means
	// auto (chunk only when per-rank volume is large enough to profit);
	// 1 forces the single-shot path.
	Chunks int
	// Overlap controls pack/exchange overlap of the chunked path.
	Overlap OverlapMode
	// Wire selects the on-wire precision of intermediate reshape payloads
	// (see wire.go). The zero value (WireFp64) ships full doubles; WireFp32
	// and WireFp16 compress the interior all-to-alls to half or a quarter of
	// the bytes, fusing the conversions into the pack/unpack kernels. Input
	// and output reshapes always run at full precision.
	Wire WirePrecision
}

// Options tunes a plan. The zero value is the paper's best general setting:
// pencil/auto decomposition, Alltoallv, strided local FFTs.
type Options struct {
	Decomp  Decomposition
	Backend Backend

	// Contiguous selects the paper's "transposed" local-FFT mode: the device
	// transposes the data so every 1-D FFT sees unit stride, trading
	// transpose kernels for the strided-input penalty of Fig. 10. The mode
	// exists in virtual time: the host transforms the same lines in place.
	Contiguous bool

	// PQ optionally fixes the pencil grid (P, Q), both entries positive;
	// {0, 0} means the most square factorization, and any other entry that is
	// not positive is ErrBadConfig. Only pencils and auto (where the grid
	// steers the choice) use it: a nonzero PQ with slabs or bricks is
	// ErrBadConfig. The grids of Table III are applied through this knob.
	PQ [2]int

	// ShrinkThreshold enables FFT grid shrinking (Algorithm 1, line 2): if
	// the per-rank volume would fall below this many elements, the transform
	// is computed on a subcommunicator of fewer ranks and remapped pre/post.
	// Zero disables shrinking. A negative threshold, or any non-zero one on a
	// RealPlan (which always computes over every rank), is ErrBadConfig.
	ShrinkThreshold int

	// Comm tunes the collective layer: all-to-all schedule, pipeline chunk
	// count, pack/exchange overlap, and wire precision. The zero value is
	// fully automatic at full precision.
	Comm CommConfig

	// Checkpoints, when non-nil, arms elastic recovery: every execution
	// stages per-rank phase checkpoints into the store (priced through the
	// device's Retain kernel), and after a World.Shrink a plan rebuilt over
	// the survivors can ResumeBatch from the last globally completed stage
	// boundary instead of re-executing from the input. See checkpoint.go.
	Checkpoints *CheckpointStore
}
