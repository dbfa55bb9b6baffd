package core

import (
	"fmt"
	"math"
)

// Backend selects the MPI exchange strategy of Table I.
type Backend int

const (
	// BackendAlltoallv uses MPI_Alltoallv with exact block sizes (heFFTe's
	// default and the paper's best option at scale).
	BackendAlltoallv Backend = iota
	// BackendAlltoall uses MPI_Alltoall, padding all blocks to the largest.
	BackendAlltoall
	// BackendAlltoallw is Algorithm 2: the generalized all-to-all over
	// derived sub-array datatypes (no pack/unpack kernels, naive transport,
	// not GPU-aware under SpectrumMPI).
	BackendAlltoallw
	// BackendP2P uses non-blocking MPI_Isend/MPI_Irecv with Waitany.
	BackendP2P
	// BackendP2PBlocking uses blocking MPI_Send with MPI_Irecv.
	BackendP2PBlocking
)

// Capabilities is one row of the backend table: what a backend's exchanges
// run. Every per-backend decision reads it — the exchange driver, wire and
// schedule resolution, CommPhases, the option validator and Table I — and
// only exchange.post's transport dispatch names a backend.
type Capabilities struct {
	Name       string // flag and print name
	Routine    string // the MPI calls one exchange posts
	Collective bool   // one all-to-all call; else point-to-point, receives posted first
	Pads       bool   // every block padded to the largest (MPI_Alltoall)
	Schedules  bool   // runs CommConfig's schedules, chunks and overlap; else one vendor call
	Wire       bool   // interior exchanges ship at CommConfig.Wire
	Packs      bool   // pack/unpack kernels; none for MPI_Alltoallw's derived datatypes
	BulkUnpack bool   // one unpack kernel per call; P2P unpacks per message, as they arrive
	Async      bool   // a non-blocking variant, so per-entry pipelined execution
}

var backends = [...]Capabilities{
	BackendAlltoallv: {Name: "alltoallv", Routine: "MPI_Alltoallv", Collective: true,
		Schedules: true, Wire: true, Packs: true, BulkUnpack: true, Async: true},
	BackendAlltoall: {Name: "alltoall", Routine: "MPI_Alltoall", Collective: true, Pads: true,
		Wire: true, Packs: true, BulkUnpack: true},
	BackendAlltoallw:   {Name: "alltoallw", Routine: "MPI_Alltoallw", Collective: true},
	BackendP2P:         {Name: "p2p", Routine: "MPI_Isend, MPI_Irecv+MPI_Waitany", Wire: true, Packs: true},
	BackendP2PBlocking: {Name: "p2p-blocking", Routine: "MPI_Send, MPI_Irecv+MPI_Waitany", Wire: true, Packs: true},
}

// Capabilities returns the backend's row of the table; an unknown backend's
// row has only a name.
func (b Backend) Capabilities() Capabilities {
	if b < 0 || int(b) >= len(backends) {
		return Capabilities{Name: fmt.Sprintf("backend(%d)", int(b))}
	}
	return backends[b]
}

func (b Backend) String() string { return b.Capabilities().Name }

// planKind is what a configuration is validated for, each with its own rules.
type planKind int

const (
	complexPlan planKind = iota // NewPlan: Forward, Inverse and the batches
	realPlan                    // NewRealPlan
	pipelined                   // Plan.ForwardPipelined and InversePipelined
)

// checkConfig is the one plan validator: a grid with a non-positive extent or
// one whose complex128 array's byte count overflows an int, and every setting
// the backend's row or the plan kind does not run, is ErrBadConfig naming the
// backend and the setting. paperBaseline's settings — CollLinear, one chunk,
// fp64 — are every backend's vendor path and pass everywhere, as do the
// automatic ones.
func checkConfig(global [3]int, o Options, kind planKind) error {
	b, cc := o.Backend, o.Comm
	caps := b.Capabilities()
	reject := func(setting string, v any, why string) error {
		return fmt.Errorf("core: %w: backend %v, %s = %v: %s", ErrBadConfig, b, setting, v, why)
	}
	switch {
	case global[0] < 1 || global[1] < 1 || global[2] < 1:
		return reject("Global", global, "every extent must be at least 1")
	case global[0] > math.MaxInt/16/global[1]/global[2]:
		return reject("Global", global, "its complex128 array's byte count overflows an int")
	case b < 0 || int(b) >= len(backends):
		return reject("Backend", int(b), "no such backend")
	case o.Decomp < DecompAuto || o.Decomp > DecompBricks:
		return reject("Decomp", o.Decomp, "no such decomposition")
	case cc.Algo < CollAuto || int(cc.Algo) >= len(simAlgos):
		return reject("Comm.Algo", cc.Algo, "no such schedule")
	case cc.Overlap < OverlapAuto || cc.Overlap > OverlapOff:
		return reject("Comm.Overlap", cc.Overlap, "no such overlap mode")
	case cc.Wire < WireFp64 || cc.Wire > WireFp16:
		return reject("Comm.Wire", int(cc.Wire), "no such wire precision")
	case o.ShrinkThreshold < 0:
		return reject("ShrinkThreshold", o.ShrinkThreshold, "negative")
	case o.PQ[0] < 0 || o.PQ[1] < 0 || (o.PQ[0] == 0) != (o.PQ[1] == 0):
		return reject("PQ", o.PQ, "set both entries positive, or both zero for the most square grid")
	case o.PQ != [2]int{} && (o.Decomp == DecompSlabs || o.Decomp == DecompBricks):
		return reject("PQ", o.PQ, fmt.Sprintf("a %v decomposition has no pencil grid; set it with pencils or auto", o.Decomp))
	case !caps.Schedules && cc.Algo != CollAuto && cc.Algo != CollLinear:
		return reject("Comm.Algo", cc.Algo, "the backend runs no schedules, only its vendor call (auto or linear)")
	case !caps.Schedules && cc.Chunks > 1:
		return reject("Comm.Chunks", cc.Chunks, "the backend does not chunk its exchanges")
	case !caps.Schedules && cc.Overlap != OverlapAuto:
		return reject("Comm.Overlap", cc.Overlap, "the backend does not chunk, so nothing overlaps")
	case !caps.Wire && cc.Wire != WireFp64:
		return reject("Comm.Wire", cc.Wire, "the backend has no pack kernel to fuse a conversion into")
	}
	switch {
	case kind == realPlan && global[2]%2 != 0:
		return reject("Global", global, "a real-to-complex plan needs an even N2")
	case kind == realPlan && o.Checkpoints != nil:
		return reject("Checkpoints", "set", "they hold complex whole-batch boundaries, which a real-to-complex plan cannot record")
	case kind == realPlan && o.ShrinkThreshold != 0:
		return reject("ShrinkThreshold", o.ShrinkThreshold, "a real-to-complex plan computes on every rank")
	case kind == realPlan && o.Decomp != DecompAuto && o.Decomp != DecompPencils:
		return reject("Decomp", o.Decomp, "a real-to-complex plan computes on pencils")
	case kind == pipelined && !caps.Async:
		return reject("pipelined execution", "requested", "the backend has no non-blocking all-to-all")
	case kind == pipelined && cc.Chunks > 1:
		return reject("Comm.Chunks", cc.Chunks, "a pipelined entry's exchange is one unchunked message")
	case kind == pipelined && cc.Overlap != OverlapAuto:
		return reject("Comm.Overlap", cc.Overlap, "a pipelined entry's exchange is one unchunked message")
	case kind == pipelined && o.Checkpoints != nil:
		return reject("Checkpoints", "set", "pipelined execution leaves no whole-batch stage boundary to checkpoint")
	}
	return nil
}
