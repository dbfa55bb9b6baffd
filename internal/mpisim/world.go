// Package mpisim is an in-process, virtual-time message-passing library with
// MPI-like semantics. It plays the role SpectrumMPI/MVAPICH play in the
// paper.
//
// Ranks are goroutines. Payload bytes really move between ranks, so the
// distributed FFT built on top is numerically exact; *time* does not come
// from the wall clock but from a per-rank virtual clock advanced according to
// the machine model (internal/machine): every message pays a software posting
// overhead, serializes through its sender's injection port, and arrives one
// latency later; device buffers without GPU-aware MPI stage through PCIe.
//
// Virtual timings are deterministic: they depend only on the per-rank order
// of operations and the matching of messages, never on the Go scheduler.
package mpisim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Buf is a message payload living on the host or on the device. Most
// transfers carry double-complex elements (16 bytes each, the datatype of
// the paper's transforms); real-to-complex input reshapes carry float64
// elements (8 bytes each), which is exactly why R2C halves the communication
// volume. In phantom mode both slices are nil and only the element count N
// is carried, so paper-scale runs do not allocate real arrays; all timing is
// identical because costs depend only on sizes and locations.
type Buf struct {
	Data []complex128
	Real []float64 // real payload; mutually exclusive with Data
	N    int       // element count when Data and Real are nil (phantom mode)
	Loc  machine.Location
	// SumRe/SumIm carry the ABFT envelope of the block — the sum of its
	// elements, computed at pack time by the plan layer — when Summed is
	// set. The envelope travels out-of-band (it is metadata, not payload),
	// so a wire flip corrupts the bytes but not the carried sum, and the
	// receiver's unpack-side invariant catches the mismatch.
	SumRe, SumIm float64
	// View belongs to the layer above: a size-only block may carry a reference
	// to the arrays it stands for, which the receiver copies out of directly
	// (core's single-copy reshapes). The transport prices such a block by N
	// like any phantom one, hands View to the receiver untouched and never
	// looks at it.
	View any

	// The flags and the wire format sit together so that an entry of an
	// exchange vector (Block) stays at 128 bytes.

	// PhantomReal marks a phantom buffer as real-valued (8 bytes/element).
	PhantomReal bool
	// Move transfers buffer ownership to the receiver: the simulator skips
	// the defensive deep copy it otherwise performs to honour MPI buffer
	// semantics ("sender may reuse its buffer after the call returns"). Set
	// it only when the sender never touches the payload again — the staging
	// buffers of the FFT reshape phases are the canonical case. The receiver
	// owns a moved buffer outright and may recycle it.
	Move bool
	// Corrupt marks a payload damaged in transit by fault injection; the
	// receiving side detects it (modeling transport checksums) and raises
	// ErrMessageCorrupt rather than silently delivering bad data.
	Corrupt bool
	Summed  bool // SumRe/SumIm are set
	// Wire is the on-wire element format of the payload. Data and Real always
	// hold float64/complex128 values (the compute precision), but a compressed
	// buffer's elements have already been rounded to the wire grid at pack
	// time, and Bytes — hence every transport, staging, and checksum cost —
	// counts the compressed width. The zero value is WireFp64: full-width,
	// exact.
	Wire WirePrecision

	// silent is the number of consecutive silently-corrupted transmissions
	// of this block (fault injection); flipSeed locates the deterministic
	// bit flip. Transport-private: set at send, consumed at delivery.
	silent   int
	flipSeed uint64
}

// Elems reports the number of elements in the buffer.
func (b Buf) Elems() int { return b.elems() }

// elems and bytes are Elems and Bytes for a Buf held in place — an entry of an
// exchange vector — where the value receivers would copy all 120 bytes of it
// per call.
func (b *Buf) elems() int {
	switch {
	case b.Data != nil:
		return len(b.Data)
	case b.Real != nil:
		return len(b.Real)
	default:
		return b.N
	}
}

// Bytes reports the payload size in bytes at the buffer's wire precision
// (16/8/4 per complex element, 8/4/2 per real element for fp64/fp32/fp16).
// Every transport cost in the simulator — wire time, PCIe staging, checksum
// charges, retransmissions, collective padding — derives from this, so
// compressing a buffer reprices its entire journey.
func (b Buf) Bytes() int { return b.bytes() }

func (b *Buf) bytes() int {
	if b.Real != nil || (b.Data == nil && b.PhantomReal) {
		return b.Wire.RealBytes() * b.elems()
	}
	return b.Wire.ComplexBytes() * b.elems()
}

// clone returns a deep copy so senders may reuse their buffers immediately,
// matching MPI buffer semantics. Buffers sent with Move skip the copy: the
// sender has relinquished ownership, so the payload travels by reference (the
// common case on the FFT hot path, where pack buffers are built per exchange
// and never touched again).
func (b Buf) clone() Buf {
	b.detach()
	return b
}

// detach is clone in place: the buffer stops sharing its payload with the
// caller's slice (unless it was sent with Move).
func (b *Buf) detach() {
	switch {
	case b.Move:
	case b.Data != nil:
		d := make([]complex128, len(b.Data))
		copy(d, b.Data)
		b.Data = d
	case b.Real != nil:
		d := make([]float64, len(b.Real))
		copy(d, b.Real)
		b.Real = d
	}
}

// Options configures a World.
type Options struct {
	// GPUAware enables GPU-aware MPI transfers (device buffers move without
	// PCIe staging where the MPI stack supports it). Mirrors heFFTe's
	// -no-gpu-aware flag when false.
	GPUAware bool
	// Tracer, when non-nil, records one event per MPI call and per GPU
	// kernel.
	Tracer *trace.Tracer
	// Faults, when non-nil, injects the plan's seeded fault schedule into
	// this world's exchanges: stalls, degraded links, dropped or corrupted
	// messages, and rank kills, surfaced as typed errors (ErrRankFailed,
	// ErrMessageCorrupt, ErrExchangeTimeout) instead of silent hangs.
	Faults *faults.Plan
	// Placement maps ranks onto GPU slots (topo.Block, topo.RoundRobin, or an
	// explicit permutation). The zero value is block placement — the layout of
	// every paper experiment.
	Placement topo.Placement
	// Integrity enables checksummed transport envelopes and (read by the
	// plan layer) ABFT phase invariants. The zero value disables both:
	// silently corrupted payloads then reach the caller unrepaired.
	Integrity IntegrityConfig
}

// World owns the ranks of one simulated job.
type World struct {
	model  *machine.Model
	size   int
	nodes  int
	topo   *topo.System
	opts   Options
	states []*rankState
	mail   []*mailbox

	failed   atomic.Bool
	panicV   atomic.Value // first panic payload
	faultErr atomic.Value // first injected-fault error (error)

	commIDs atomic.Int64

	shared sync.Map // key → *sharedSlot: once-per-world memoized values

	// Integrity accounting: what the checksummed transport and the ABFT
	// invariants did, plus per-rank suspicion scores for the health ledger.
	integ     IntegrityCounters
	suspicion []int64 // per world rank, atomic

	// Elastic-recovery state: the epoch this world executes under (0 for a
	// fresh world, +1 per Shrink), the ranks recorded dead by injected kills
	// with the victim's clock at the kill site, and whether this world has
	// already been shrunk (a superseded world refuses further Shrinks).
	epoch      int
	deadMu     sync.Mutex
	dead       map[int]float64 // world rank → virtual clock at the kill
	superseded atomic.Bool
	// origin maps this world's ranks back to the epoch-0 world's ranks
	// (nil for a fresh world: the identity). Operators read it to see which
	// of the original ranks a shrunken world still carries.
	origin []int
}

// sharedSlot backs World.Shared.
type sharedSlot struct {
	once sync.Once
	val  any
}

// Shared memoizes a deterministic computation across ranks: the first caller
// of a key computes, everyone else reuses the result. Collective plan
// construction uses this to avoid repeating communicator-wide analyses (box
// overlaps, exchange groups) on every rank (compute must be a pure function
// of inputs identical on all ranks, e.g. keyed by a content hash).
func (w *World) Shared(key string, compute func() any) any {
	v, _ := w.shared.LoadOrStore(key, &sharedSlot{})
	s := v.(*sharedSlot)
	s.once.Do(func() { s.val = compute() })
	return s.val
}

// rankState is the virtual-time state of one world rank; it is touched only
// by the owning goroutine (collectives exchange snapshots by value), except
// for the wake slot.
type rankState struct {
	clock      float64 // virtual now
	portFreeAt float64 // injection port busy-until
	// ops counts fault-visible exchange operations (P2P sends, collective
	// calls) — the coordinate system of fault plans. Deterministic: it
	// depends only on the rank's own operation order.
	ops int
	// probes counts transform-phase execution attempts — the coordinate
	// system of Brick CorruptSilent events (Comm.BrickProbe).
	probes int
	// slot is where the rank blocks in a rendezvous: the round's leader and
	// World.abort post a token to it. A rank waits in at most one rendezvous
	// at a time, so one slot per world rank serves every communicator.
	slot chan struct{}
}

// wake posts a token to the rank's wake slot without blocking: a slot that
// already holds one — an abort's, possibly of a rank that has left — wakes
// its rank just the same.
func (st *rankState) wake() {
	select {
	case st.slot <- struct{}{}:
	default:
	}
}

type message struct {
	commID int64
	src    int // comm-local source rank
	tag    int
	buf    Buf
	// Receiver-side timing computed at post time.
	arrival      float64
	postStage    float64
	recvOverhead float64
	claimed      bool
	// dropped marks a tombstone: the message was lost in transit (fault
	// injection). It still matches (src, tag) so the receiver's wait is
	// bounded — claiming it raises ErrExchangeTimeout instead of hanging.
	dropped bool
}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []*message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// NewWorld creates a job of the given size on the given machine.
func NewWorld(m *machine.Model, size int, opts Options) *World {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	if size < 1 {
		panic(fmt.Sprintf("mpisim: invalid world size %d", size))
	}
	sys, err := topo.New(m, size, opts.Placement)
	if err != nil {
		panic(err)
	}
	w := &World{
		model:  m,
		size:   size,
		nodes:  sys.Nodes(),
		topo:   sys,
		opts:   opts,
		states: make([]*rankState, size),
		mail:   make([]*mailbox, size),

		suspicion: make([]int64, size),
	}
	for i := range w.states {
		w.states[i] = &rankState{slot: make(chan struct{}, 1)}
		w.mail[i] = newMailbox()
	}
	return w
}

// Model returns the machine model of the world.
func (w *World) Model() *machine.Model { return w.model }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Topo returns the resolved topology of the job (its placement).
func (w *World) Topo() *topo.System { return w.topo }

// Result summarizes a Run.
type Result struct {
	// Clocks holds each rank's final virtual time.
	Clocks []float64
	// MaxClock is the job's virtual makespan.
	MaxClock float64
	// Err is the injected fault that failed the world, if any (wrapping
	// ErrRankFailed, ErrMessageCorrupt or ErrExchangeTimeout). Clocks are
	// still reported: they hold each rank's virtual time at teardown.
	Err error
}

// Run executes f once per rank, each on its own goroutine with a handle to
// the world communicator, and returns the final virtual clocks. A World can
// be Run only once (create a new World per experiment repetition; clocks
// start at zero).
func (w *World) Run(f func(c *Comm)) Result {
	wc := w.newWorldComm()
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					w.abort(p)
				}
			}()
			f(&Comm{core: wc, rank: rank})
		}(r)
	}
	wg.Wait()
	if p := w.panicV.Load(); p != nil {
		panic(fmt.Sprintf("mpisim: rank panicked: %v", p.(*panicBox).v))
	}
	res := Result{Clocks: make([]float64, w.size), Err: w.FaultError()}
	for i, st := range w.states {
		res.Clocks[i] = st.clock
		if st.clock > res.MaxClock {
			res.MaxClock = st.clock
		}
	}
	return res
}

// abort marks the world failed and wakes every blocked waiter so the whole
// job tears down with a diagnostic instead of hanging. Injected faults
// (faultPanic) are recorded as the world's fault error, not as rank bugs.
func (w *World) abort(p any) {
	switch v := p.(type) {
	case worldAborted:
		// Secondary panic of a rank unblocked by the abort: nothing to record.
	case faultPanic:
		w.faultErr.CompareAndSwap(nil, v.err)
	default:
		w.panicV.CompareAndSwap(nil, &panicBox{p})
	}
	w.failed.Store(true)
	for _, mb := range w.mail {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	for _, st := range w.states {
		st.wake()
	}
}

func (w *World) checkFailed() {
	if w.failed.Load() {
		panic(worldAborted{})
	}
}

// panicBox wraps arbitrary panic payloads so atomic.Value sees one type.
type panicBox struct{ v any }

// worldAborted is the secondary panic raised on ranks unblocked by abort.
type worldAborted struct{}

func (worldAborted) String() string { return "world aborted by another rank's panic" }

// commCore is the state shared by all rank handles of one communicator.
type commCore struct {
	world *World
	id    int64
	// worldRanks[i] is the world rank of comm rank i.
	worldRanks []int
	rv         *rendezvous
}

func (w *World) newWorldComm() *commCore {
	ranks := make([]int, w.size)
	for i := range ranks {
		ranks[i] = i
	}
	return w.newComm(ranks)
}

func (w *World) newComm(worldRanks []int) *commCore {
	return &commCore{
		world:      w,
		id:         w.commIDs.Add(1),
		worldRanks: worldRanks,
		rv:         &rendezvous{ranks: worldRanks},
	}
}

// Comm is one rank's handle on a communicator. Handles are cheap values; all
// methods must be called only from the owning rank's goroutine.
type Comm struct {
	core *commCore
	rank int
}

// Rank returns the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.core.worldRanks) }

// WorldRank translates a comm rank to its world rank.
func (c *Comm) WorldRank(r int) int { return c.core.worldRanks[r] }

// World returns the underlying world.
func (c *Comm) World() *World { return c.core.world }

// Model returns the machine model.
func (c *Comm) Model() *machine.Model { return c.core.world.model }

// Topo returns the resolved topology of the world.
func (c *Comm) Topo() *topo.System { return c.core.world.topo }

// GPUAware reports whether GPU-aware MPI is enabled for this job.
func (c *Comm) GPUAware() bool { return c.core.world.opts.GPUAware }

// Tracer returns the world's tracer (possibly nil).
func (c *Comm) Tracer() *trace.Tracer { return c.core.world.opts.Tracer }

func (c *Comm) state() *rankState {
	return c.core.world.states[c.core.worldRanks[c.rank]]
}

// Clock returns the rank's current virtual time in seconds.
func (c *Comm) Clock() float64 { return c.state().clock }

// Advance adds dt seconds of local work (e.g. a GPU kernel) to the rank's
// virtual clock.
func (c *Comm) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("mpisim: negative Advance(%g)", dt))
	}
	c.state().clock += dt
}

// record emits a trace event for this rank.
func (c *Comm) record(name string, start, end float64, bytes int) {
	c.Tracer().Record(trace.Event{
		Rank: c.core.worldRanks[c.rank], Name: name, Start: start, End: end, Bytes: bytes,
	})
}
