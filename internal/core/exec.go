package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// engine is the execution state Plan and RealPlan share: one stage runner
// (run) walks either plan's stage list, and the cross-cutting layers — fault
// errors with (rank, phase) context, context cancellation, phase checkpoints,
// ABFT invariants, ExecInfo — hang off it once, at stage boundaries, so they
// hold on every execution path or the combination is rejected with
// ErrBadConfig.
type engine struct {
	comm *mpisim.Comm
	dev  *gpu.Device
	opts Options
	// caps is the backend's row of the backend table.
	caps *Capabilities
	// global is the extents of the grid the complex stages transform (the
	// Hermitian half grid for a RealPlan); decomp the resolved decomposition.
	// Both describe the execution to the checkpoint store.
	global [3]int
	decomp Decomposition // never DecompAuto
	// abftEps widens the ABFT invariant floor by the wire's quantization noise
	// when the plan compresses any exchange (abftEpsOf); zero otherwise.
	abftEps float64

	closed bool
	// lastExec describes the most recent execution on this rank (LastExec).
	lastExec ExecInfo
	// curPhase is the stage label currently executing, read by recoverFault to
	// attach phase context to fault errors. Rank-local, like the plan itself.
	curPhase string
	// ctx is the cancellation context of an in-flight *Ctx call (nil
	// otherwise); checked at stage and chunk boundaries.
	ctx context.Context
	// The batch-sized slices every reshape works through (see batchScratch).
	cscratch batchScratch[complex128]
	rscratch batchScratch[float64]
}

// batchScratch holds the two slices a reshape threads a batch through — the
// entries' local arrays going in and their new arrays coming out — so no
// reshape allocates them. They are sized by the widest batch the plan has
// run, never by a peer or group count, and hold nothing between reshapes:
// whoever takes them clears every entry it set, so a cached plan pins neither
// the caller's arrays nor the staging pool's.
//
// The scratch also carries array ownership from one execution to the next.
// pins remembers — weakly — the arrays the last execution drew from the staging
// pool and left in the caller's fields; an execution that is handed exactly
// those arrays back starts out owning them (claim), so an in-place
// Forward/Inverse loop lends and recycles from its first reshape on and
// allocates nothing. An execution empties the pins it looks through, so each
// array is recognized once: a copied Field value still pointing at such an
// array is a caller's array to every later execution, which reads it but never
// pools it a second time. pins is a sync.Pool because that is what "weakly"
// means here: it holds real pointers, so a match is the same allocation and
// not a recycled address, yet an idle plan — one parked in a cache, say — pins
// its last outputs for two collections at most. Losing a pin early only costs
// one packed reshape. views are the engine's lending records (see lent),
// reused once their holds drain.
type batchScratch[T any] struct {
	datas, out [][]T
	pins       sync.Pool
	held       []*T // claim's scratch; empty between claims
	views      []*lent[T]
}

func (s *batchScratch[T]) take(n int) (datas, out [][]T) {
	if cap(s.datas) < n {
		s.datas, s.out = make([][]T, n), make([][]T, n)
	}
	return s.datas[:n], s.out[:n]
}

// lendOut readies a record for an exchange that lends datas (over box from,
// returned to the staging pool after the last read): an idle one when there
// is one — in steady state there always is — holding the arrays and the
// sender's own hold.
func (s *batchScratch[T]) lendOut(datas [][]T, from tensor.Box3) *lent[T] {
	var v *lent[T]
	for _, c := range s.views {
		if c.holds.Load() == lentIdle {
			v = c
			break
		}
	}
	if v == nil {
		v = &lent[T]{}
		s.views = append(s.views, v)
	}
	v.datas, v.from = append(v.datas[:0], datas...), from
	v.holds.Store(1)
	return v
}

// arrayOf identifies a slice by its backing array (nil when it has none).
func arrayOf[T any](d []T) *T {
	if cap(d) == 0 {
		return nil
	}
	return &d[:1][0]
}

// claimFields takes back what the last execution pinned and reports whether
// every entry's array is among it, i.e. the batch is plan-owned from the start.
func claimFields[T any, F fieldOf[T]](e *engine, fs []F) bool {
	s := scratchOf[T](e)
	held := s.held
	for x := s.pins.Get(); x != nil; x = s.pins.Get() {
		if a, ok := x.(*T); ok {
			held = append(held, a)
		}
	}
	owned := true
	for _, f := range fs {
		_, data := f.ref()
		a := arrayOf(*data)
		if a == nil {
			continue // nothing to pool or lend
		}
		i := slices.Index(held, a)
		if i < 0 {
			owned = false
			break
		}
		held[i] = nil
	}
	clear(held)
	s.held = held[:0]
	return owned
}

// pinFiller goes into pins ahead of the arrays: a sync.Pool keeps the first
// value put on a processor where only that processor finds it again, and rank
// goroutines wander — behind the filler the arrays land where any of them can
// be found from.
var pinFiller = new(int8)

// keepFields pins the arrays a successful execution leaves in the caller's
// fields; they are plan-owned (see run), and stay valid for the caller until
// the field's next transform.
func keepFields[T any, F fieldOf[T]](e *engine, fs []F) {
	s := scratchOf[T](e)
	s.pins.Put(pinFiller)
	for _, f := range fs {
		_, data := f.ref()
		if a := arrayOf(*data); a != nil {
			s.pins.Put(a)
		}
	}
}

// scratchOf selects the engine's batch scratch of element type T.
func scratchOf[T any](e *engine) *batchScratch[T] {
	if s, ok := any(&e.cscratch).(*batchScratch[T]); ok {
		return s
	}
	return any(&e.rscratch).(*batchScratch[T])
}

type stageKind int

const (
	stageReshape stageKind = iota
	stageFFT1D
	stageFFT2D
	// stageR2C and stageC2R are the local real↔half-spectrum transforms along
	// axis 2 that turn a RealPlan's real batch into the complex batch the
	// remaining stages carry, and back.
	stageR2C
	stageC2R
)

type stage struct {
	kind  stageKind
	label string       // phase name reported in fault errors
	rs    *reshapePlan // stageReshape
	axis  int          // stageFFT1D: transform axis
	// myBox is the local box during a compute stage; for stageR2C/stageC2R the
	// real z-pencil box, with specBox its half-spectrum shadow.
	myBox, specBox tensor.Box3
	// fplan is the kernel plan of a stageFFT1D's axis, or of a stageFFT2D's
	// rows (axis 2), whose columns (axis 1) use fcols; resolved at build time.
	fplan, fcols *fft.Plan
	rplan        *fft.RealPlan // stageR2C/stageC2R: real kernel plan
}

// in and out are the local boxes a batch enters and leaves the stage on.
func (st *stage) in() tensor.Box3 {
	switch st.kind {
	case stageReshape:
		return st.rs.from
	case stageC2R:
		return st.specBox
	}
	return st.myBox
}

func (st *stage) out() tensor.Box3 {
	switch st.kind {
	case stageReshape:
		return st.rs.to
	case stageR2C:
		return st.specBox
	}
	return st.myBox
}

// batch is the data one execution carries: complex fields, or — before the
// r2c stage and after the c2r stage of a RealPlan — real fields. Exactly one
// representation is live at a time.
type batch struct {
	fields []*Field
	reals  []*RealField
	real   bool
	// owned says the live arrays are plan-owned: drawn from the staging pool by
	// a reshape or a real stage of this execution, or left in these fields by
	// the previous one (claim). A reshape returns plan-owned arrays to the pool
	// once they are packed or, lent as views, once their last reader is done;
	// a caller's own arrays are packed and left alone.
	owned bool
	// whole holds the callers' whole-grid arrays of a global batch
	// (Plan.ForwardGlobal; nil otherwise): the input is read out of them and
	// the output written into them (enterGrid, reshape, leaveGrid). While wide
	// is set the fields' arrays are these arrays, laid out over the full grid
	// rather than over the fields' boxes. inPlace keeps them there from the
	// first stage to the last: each rank transforms its box where it sits, and
	// the reshapes are charged, not copied (engine.inPlace).
	whole         [][]complex128
	wide, inPlace bool
}

func (b *batch) len() int {
	if b.real {
		return len(b.reals)
	}
	return len(b.fields)
}

func (b *batch) phantom() bool {
	if b.real {
		return b.reals[0].Phantom()
	}
	return b.fields[0].Phantom()
}

// validate checks every entry against the box the batch must sit on — or, for
// a global batch, the callers' arrays against the grid.
func (b *batch) validate(want tensor.Box3, global [3]int) error {
	if b.whole != nil {
		return validateWhole(b.whole, global)
	}
	if b.real {
		return validateFields[float64](b.reals, want)
	}
	return validateFields[complex128](b.fields, want)
}

// claim and keep carry array ownership between executions (see batchScratch).
// A phantom batch has no arrays to own, and a global batch's fields are the
// plan's scratch, never the caller's.
func (b *batch) claim(e *engine) {
	if b.phantom() || b.whole != nil {
		return
	}
	if b.real {
		b.owned = claimFields[float64](e, b.reals)
	} else {
		b.owned = claimFields[complex128](e, b.fields)
	}
}

func (b *batch) keep(e *engine) {
	if !b.owned {
		return
	}
	if b.real {
		keepFields[float64](e, b.reals)
	} else {
		keepFields[complex128](e, b.fields)
	}
}

// disown takes plan-owned arrays out of the fields of an execution that
// failed: peers may still be reading them, and their last reader pools them,
// so the caller must not find them there. The fields are left without data.
// (A nil batch — a failure outside run — has nothing to give up.)
func (b *batch) disown() {
	if b == nil || !b.owned {
		return
	}
	for _, f := range b.fields {
		if f != nil {
			f.Data = nil
		}
	}
	for _, rf := range b.reals {
		if rf != nil {
			rf.Data = nil
		}
	}
}

// fieldOf abstracts Field and RealField over their element type: ref exposes
// the box and the local array so the runner can validate and re-point either.
type fieldOf[T any] interface {
	ref() (*tensor.Box3, *[]T)
}

func (f *Field) ref() (*tensor.Box3, *[]complex128)  { return &f.Box, &f.Data }
func (f *RealField) ref() (*tensor.Box3, *[]float64) { return &f.Box, &f.Data }

// validateFields checks that every entry covers the expected box with an
// array of matching length, and that phantom (size-only) and real payloads
// are not mixed within the batch. A field on the wrong box or with an array
// that does not fit its box is ErrMismatchedBoxes; a mixed batch matches no
// sentinel and stays untyped (the boxes agree — it is the call that is
// malformed, not a distribution).
func validateFields[T any, F fieldOf[T]](fs []F, want tensor.Box3) error {
	for _, f := range fs {
		box, data := f.ref()
		if !box.Equal(want) {
			return fmt.Errorf("core: %w: field box %v does not match plan box %v", ErrMismatchedBoxes, *box, want)
		}
		if *data != nil && len(*data) != box.Volume() {
			return fmt.Errorf("core: %w: field data length %d != box volume %d", ErrMismatchedBoxes, len(*data), box.Volume())
		}
		if _, first := fs[0].ref(); (*data == nil) != (*first == nil) {
			return fmt.Errorf("core: batch mixes phantom and real fields")
		}
	}
	return nil
}

// validateWhole checks a global batch: every entry covers the grid, and no two
// share memory — the input reshape reads every entry before the output
// reshape writes any, so an array submitted twice would be written twice from
// one input. Every rank is handed the same arrays, so every rank returns the
// same error before anything is exchanged.
func validateWhole(datas [][]complex128, global [3]int) error {
	n := global[0] * global[1] * global[2]
	for i, d := range datas {
		if len(d) != n {
			return fmt.Errorf("core: %w: global entry %d holds %d elements, grid %v has %d", ErrBadConfig, i, len(d), global, n)
		}
		for j, o := range datas[:i] {
			if overlap(d, o) {
				return fmt.Errorf("core: %w: global entries %d and %d share memory", ErrBadConfig, j, i)
			}
		}
	}
	return nil
}

// overlap reports whether two non-empty slices share an element.
func overlap(a, b []complex128) bool {
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	const size = unsafe.Sizeof(a[0])
	return pa < pb+uintptr(len(b))*size && pb < pa+uintptr(len(a))*size
}

// policy is how the runner schedules a batch over the stages. It is selected
// by the public method called, never by an option.
type policy int

const (
	// batchFused fuses the batch into one exchange per reshape (one message
	// per pair carries every entry, amortizing latency and per-message
	// overheads), charges ONE entry's compute per stage and hides the other
	// entries' compute behind the next exchange — the batched transform of
	// Algorithm 1 evaluated in Fig. 13.
	batchFused policy = iota
	// entryAsync posts one non-blocking exchange per entry and computes entry
	// i while later entries' messages fly — the explicit asynchronous overlap
	// of the turbulence/GPUDirect studies the paper cites ([28], [34], [35]).
	// It trades message fusion for finer-grained overlap.
	entryAsync
)

// ExecInfo describes one execution on this rank: how many fields the batch
// fused and the virtual-time interval it spanned. The serving layer uses it
// to attribute per-batch virtual cost without instrumenting the pipeline.
type ExecInfo struct {
	// Batch is the number of fields the execution carried.
	Batch int
	// Start and End are the rank's virtual clock (seconds) around the
	// execution; End-Start is the batch's virtual cost on this rank.
	Start, End float64
}

// run executes stages[from:] on the batch — the only function in the package
// that walks a stage list to execute it. The batch must sit on the
// distribution of that stage boundary (from > 0 re-enters a shrunken world's
// pipeline at the last globally completed boundary, see ResumeBatch).
//
// The boundary hooks apply here once: the entry check (closed plan, empty or
// mixed batch, boxes), curPhase + recoverFault (injected faults and exchange
// timeouts unwind as panics from deep inside the exchange machinery and
// surface as errors with (rank, phase) context), checkCtx, checkpoint
// saveBoundary, lastExec; the ABFT invariant wraps the kernel inside
// computeStage and the envelope sums ride the exchange driver.
func (e *engine) run(stages []stage, b *batch, dir fft.Direction, from int, pol policy) (err error) {
	if e.closed {
		return fmt.Errorf("core: %w", ErrPlanClosed)
	}
	n := b.len()
	if n == 0 {
		return fmt.Errorf("core: empty batch")
	}
	ck := e.opts.Checkpoints
	e.curPhase = ""
	defer e.recoverFault(b, &err)
	// Validation failures leave End == Start: nothing executed, no cost.
	e.lastExec = ExecInfo{Batch: n, Start: e.comm.Clock()}
	e.lastExec.End = e.lastExec.Start
	endBox := stages[len(stages)-1].out()
	startBox := endBox
	if from < len(stages) {
		startBox = stages[from].in()
	}
	if err := b.validate(startBox, e.global); err != nil {
		return err
	}
	if b.whole != nil {
		e.enterGrid(stages, b)
	}
	phantom := b.phantom()
	if ck != nil {
		// Open this rank's checkpoint trail with the boundary being entered:
		// the caller's input, or (on resume) the boundary restored, so a
		// second shrink can cascade from there.
		e.beginCheckpoints(ck, dir, n, phantom)
		label := inputBoundary
		if from > 0 {
			label = stages[from-1].label
		}
		e.saveBoundary(ck, label, b)
	}

	// pending is local compute of batch entries beyond the first whose
	// execution overlaps the next exchange (batchFused): the pipeline charges
	// the first entry's compute up front (its results must be packed before
	// anything can be sent) and hides the rest behind communication.
	pending := 0.0
	b.claim(e)
	// flights holds each entry's posted exchange (entryAsync): set by a
	// reshape stage, drained entry by entry as the next stage needs the data.
	var flights []exchange[complex128]
	for si := from; si < len(stages); si++ {
		st := &stages[si]
		e.curPhase = st.label
		e.checkCtx()
		switch {
		case st.kind == stageReshape && pol == batchFused:
			t0 := e.comm.Clock()
			e.reshape(st.rs, b, si == len(stages)-1)
			if comm := e.comm.Clock() - t0; pending > comm {
				e.chargeOverlap(pending - comm)
			}
			pending = 0
		case st.kind == stageReshape:
			if flights == nil {
				flights = make([]exchange[complex128], n)
			}
			// Entry i's exchange works through slot i of the batch scratch.
			datas, out := e.cscratch.take(n)
			for i, f := range b.fields {
				checkBox(st.rs, f.Box)
				datas[i] = f.Data
				flights[i].arm(e, st.rs, datas[i:i+1:i+1], out[i:i+1:i+1], phantom, b.owned, true, onGrid{})
				flights[i].start()
			}
			b.owned = true
		case st.kind == stageR2C || st.kind == stageC2R:
			pending += e.realStage(st, b) * float64(n-1)
		case pol == batchFused:
			per := e.computeStage(st, b, dir)
			pending += per * float64(n-1)
		default:
			for i := range b.fields {
				land(b.fields[i], flights, i)
				// Compute this entry while later entries' exchanges fly.
				one := batch{fields: b.fields[i : i+1]}
				e.computeStage(st, &one, dir)
			}
		}
		if ck != nil {
			e.saveBoundary(ck, st.label, b)
		}
	}
	for i := range flights {
		land(b.fields[i], flights, i)
	}
	if pending > 0 {
		e.chargeOverlap(pending)
	}
	if b.whole != nil {
		e.leaveGrid(b)
	}
	e.lastExec.End = e.comm.Clock()
	if err := b.validate(endBox, e.global); err != nil {
		return fmt.Errorf("core: after execution: %w", err)
	}
	b.keep(e)
	return nil
}

// land completes entry i's in-flight exchange, if one is posted, and points
// the field at its array over the new distribution.
func land(f *Field, flights []exchange[complex128], i int) {
	if flights == nil || flights[i].rs == nil {
		return
	}
	x := &flights[i]
	x.finish()
	f.Box = x.rs.to
	f.Data, x.datas[0], x.out[0] = x.out[0], nil, nil
	x.rs = nil
}

// reshape moves the whole batch through one fused exchange and re-points
// every entry at its array over the target distribution, drawn from the
// staging pool: the batch is plan-owned from here on — except after the last
// stage of a global batch, which lands the output in the callers' arrays. A
// global batch run in place moves nothing: the exchange runs as a phantom one
// (bare, or size-only blocks on P2P), charging what the copying one would,
// and only the boxes change.
func (e *engine) reshape(rs *reshapePlan, b *batch, last bool) {
	if b.real {
		reshapeFields[float64](e, rs, b.reals, b.owned, onGrid{}, nil)
		b.owned = true
		return
	}
	if b.inPlace {
		for _, f := range b.fields {
			checkBox(rs, f.Box)
			f.Box = rs.to
		}
		datas, out := e.cscratch.take(len(b.fields))
		var x exchange[complex128]
		x.arm(e, rs, datas, out, true, false, false, onGrid{})
		x.run()
		return
	}
	grid := onGrid{in: b.wide, out: last && b.whole != nil}
	var into [][]complex128
	if grid.out {
		into = b.whole
	}
	reshapeFields(e, rs, b.fields, b.owned, grid, into)
	b.owned, b.wide = !grid.out, grid.out
}

// reshapeFields runs one exchange over the fields' arrays; into, when set, is
// where the new arrays go (the output side of grid).
func reshapeFields[T any, F fieldOf[T]](e *engine, rs *reshapePlan, fs []F, recycleIn bool, grid onGrid, into [][]T) {
	datas, out := scratchOf[T](e).take(len(fs))
	for i, f := range fs {
		box, data := f.ref()
		checkBox(rs, *box)
		datas[i] = *data
	}
	copy(out, into)
	var x exchange[T]
	x.arm(e, rs, datas, out, datas[0] == nil, recycleIn, false, grid)
	x.run()
	for i, f := range fs {
		box, data := f.ref()
		*box = rs.to
		*data, datas[i], out[i] = out[i], nil, nil
	}
}

// enterGrid points a global batch's fields at this rank's input box of the
// callers' arrays. In place, they stay there to the last stage. Otherwise an
// input reshape reads its blocks straight out of them, and a plan whose first
// stage computes takes its window as a pooled copy — or, when the window is
// the whole grid (one rank), the array itself, transformed in place.
func (e *engine) enterGrid(stages []stage, b *batch) {
	box, full := stages[0].in(), tensor.FullBox(e.global)
	b.inPlace = e.inPlace(stages)
	b.wide = b.inPlace || stages[0].kind == stageReshape
	b.owned = !b.wide && !box.Equal(full)
	for i, f := range b.fields {
		f.Box, f.Data = box, b.whole[i]
		if b.owned {
			f.Data = getBuf[complex128](box.Volume())
			tensor.Pack(b.whole[i], full, box, f.Data)
		}
	}
}

// inPlace reports whether a global batch runs in the callers' arrays: every
// reshape would lend them (an fp64 wire, and a world that neither checksums,
// carries ABFT sums nor attaches a fault plan — see lends), and no checkpoint
// store cuts boundaries out of them. It is safe without a barrier because a
// point passes from one owner to the next only through an exchange, which
// orders the sender's stage before the receiver's. Every input is a constant
// of the world or the plan, so every rank decides alike.
func (e *engine) inPlace(stages []stage) bool {
	if e.opts.Checkpoints != nil || !untouched(e.comm) {
		return false
	}
	for _, st := range stages {
		if st.kind == stageReshape && st.rs.wireOf(e.opts) != WireFp64 {
			return false
		}
	}
	return true
}

// leaveGrid lands a global batch's output in the callers' arrays: in place,
// or through an output reshape, it is there already; otherwise this rank
// copies its window in, unless the field is the array itself, and pools the
// plan's arrays.
func (e *engine) leaveGrid(b *batch) {
	full := tensor.FullBox(e.global)
	for i, f := range b.fields {
		if !b.wide && arrayOf(f.Data) != arrayOf(b.whole[i]) {
			tensor.Unpack(b.whole[i], full, f.Box, f.Data)
		}
		retire(&f.Data, b.owned)
	}
	b.owned = false
}

func checkBox(rs *reshapePlan, have tensor.Box3) {
	if !have.Equal(rs.from) {
		panic(fmt.Sprintf("core: reshape %s: field box %v != expected %v", rs.label, have, rs.from))
	}
}

// checkCtx fails the world when the attached context has expired. Runs at
// stage and chunk boundaries on the execution path; the resulting error
// satisfies errors.Is against ctx.Err() (context.Canceled or
// context.DeadlineExceeded). Cancellation is collective — a distributed
// transform cannot complete once one rank stops participating — so the rank
// observing the expired context aborts the world and every other rank's
// execution returns the same error.
func (e *engine) checkCtx() {
	if e.ctx == nil {
		return
	}
	select {
	case <-e.ctx.Done():
		e.comm.Fail(fmt.Errorf("core: rank %d: execution canceled: %w",
			e.comm.WorldRank(e.comm.Rank()), e.ctx.Err()))
	default:
	}
}

// chargeOverlap accounts batched compute that did not fit under the
// exchanges.
func (e *engine) chargeOverlap(dt float64) {
	start := e.comm.Clock()
	e.comm.Advance(dt)
	e.comm.Tracer().Record(trace.Event{
		Rank: e.comm.WorldRank(e.comm.Rank()), Name: "batched_fft",
		Start: start, End: start + dt,
	})
}

// computeStage computes the local transforms of every batch entry of a
// complex stage (numerically) and charges the virtual cost of ONE entry,
// returning that per-entry cost so the batchFused policy can pipeline the
// remainder. With ABFT invariants on, the stage runs under the phase invariant
// (runABFT); the r2c/c2r kernels (realStage) stay outside it — the invariant
// is defined over complex bricks, and the half-spectrum kernels are not
// covered.
func (e *engine) computeStage(st *stage, b *batch, dir fft.Direction) float64 {
	if st.myBox.Empty() {
		return 0
	}
	if e.comm.Integrity().Invariants {
		return e.runABFT(st, b.fields, dir)
	}
	if !b.phantom() {
		lay := st.myBox
		if b.wide {
			lay = tensor.FullBox(e.global)
		}
		for _, f := range b.fields {
			e.kernel(st, f.Data, lay, dir)
		}
	}
	return e.chargeKernel(st)
}

// kernel runs the local transforms of a complex compute stage on one array
// laid out over lay: the stage's box, or the whole grid around it.
func (e *engine) kernel(st *stage, data []complex128, lay tensor.Box3, dir fft.Direction) {
	if st.kind == stageFFT2D {
		// Slab stage: 2-D transforms over axes (1, 2) of every plane, as two
		// batches the row groups see whole — the rows of all planes, then
		// their columns as one nested (planes × columns) call.
		localFFT1D(st.fplan, data, lay, st.myBox, 2, dir)
		localFFT1D(st.fcols, data, lay, st.myBox, 1, dir)
		return
	}
	localFFT1D(st.fplan, data, lay, st.myBox, st.axis, dir)
}

// chargeKernel charges one entry's kernel of a complex compute stage and
// returns its cost.
func (e *engine) chargeKernel(st *stage) float64 {
	s := st.myBox.Sizes()
	g := e.dev.Model()
	if st.kind == stageFFT2D {
		e.dev.FFT2D(s[1], s[2], s[0], false)
		return g.FFT2DCost(s[1], s[2], s[0], false)
	}
	n := s[st.axis]
	if n != st.fplan.N() {
		panic(fmt.Sprintf("core: fft stage axis %d spans %d of %d", st.axis, n, st.fplan.N()))
	}
	batch := st.myBox.Volume() / n
	// Axis 2 is contiguous in the local layout; axes 0 and 1 are strided and
	// pay the Fig. 10 penalty, unless the plan runs the "contiguous/transposed"
	// mode, whose transposes the reshape's pack/unpack charges pay for. The
	// mode exists in virtual time: the host transforms the same lines in place.
	strided := st.axis != 2 && !e.opts.Contiguous
	e.dev.FFT1D(n, batch, strided)
	return g.FFT1DCost(n, batch, strided)
}

// localFFT1D computes the 1-D transforms along axis of box, in place in data,
// which is laid out row-major over lay: the box itself, or the whole grid of
// a global batch run in place, the box's first line then at lay.Index(box.Lo)
// and every line on the grid's strides. The two other axes are the batch, the
// outer one first; where it steps exactly over the inner one they merge, so a
// box that is its own layout runs axis 2 as one batch of contiguous lines,
// axis 1 as one nested (planes × rows) call (FFTW guru howmany_dims style) so
// the row groups see the whole middle-axis batch at once, and axis 0 as one
// batch of strided lines. Adjacent strided lines are one element apart, the
// layout internal/fft transforms across rows without a transpose. A line's
// bits do not depend on its layout, so the transposed mode
// (Options.Contiguous) is charged, never run.
func localFFT1D(plan *fft.Plan, data []complex128, lay, box tensor.Box3, axis int, dir fft.Direction) {
	s, c := box.Sizes(), lay.Sizes()
	step := [3]int{c[1] * c[2], c[2], 1}
	o, i := 0, 1 // the outer and inner batch axes
	switch axis {
	case 0:
		o, i = 1, 2
	case 1:
		i = 2
	}
	dist1, batch1, dist2, batch2 := step[o], s[o], step[i], s[i]
	if dist1 == dist2*batch2 {
		dist1, batch1, batch2 = 0, 1, batch1*batch2
	}
	at := lay.Index(box.Lo[0], box.Lo[1], box.Lo[2])
	plan.TransformNested(data[at:], step[axis], dist1, batch1, dist2, batch2, dir)
}

// realStage converts the batch's real z-pencils to complex half-spectrum
// fields (r2c) or back (c2r), each pencil as one advanced-layout D2Z/Z2D batch
// (zero-copy, parallel fan-out inside the fft package). The new arrays are
// drawn from the staging pool and fully overwritten, so the batch is
// plan-owned from here on; the arrays they replace go back to the pool when
// they were plan-owned too (retire). Charges one entry's batch of real
// transforms and returns its cost.
func (e *engine) realStage(st *stage, b *batch) float64 {
	n2, h := st.rplan.N(), st.rplan.SpectrumLen()
	// Real pencils and their half-spectrum shadows share the P×Q grid.
	rows := st.myBox.Size(0) * st.myBox.Size(1)
	for i := 0; i < b.len(); i++ {
		var err error
		if st.kind == stageR2C {
			rf, f := b.reals[i], &Field{Box: st.specBox}
			if !rf.Phantom() {
				f.Data = getBuf[complex128](st.specBox.Volume())
				err = st.rplan.ForwardBatch(rf.Data, 1, n2, f.Data, 1, h, rows)
				retire(&rf.Data, b.owned)
			}
			b.fields[i] = f
		} else {
			f, rf := b.fields[i], &RealField{Box: st.myBox}
			if !f.Phantom() {
				rf.Data = getBuf[float64](st.myBox.Volume())
				err = st.rplan.InverseBatch(f.Data, 1, h, rf.Data, 1, n2, rows)
				retire(&f.Data, b.owned)
			}
			b.reals[i] = rf
		}
		if err != nil {
			panic(err)
		}
	}
	b.real, b.owned = st.kind == stageC2R, true
	if rows == 0 {
		return 0
	}
	e.dev.FFTR2C(n2, rows)
	return e.dev.Model().FFTR2CCost(n2, rows)
}

// retire disposes of an array a stage has converted out of. A plan-owned one
// returns to the staging pool and leaves the consumed field, so nothing can
// read pooled memory through it; a caller's array stays where it is.
func retire[T any](data *[]T, owned bool) {
	if owned {
		putBuf(*data)
		*data = nil
	}
}

// recoverFault is the deferred fault handler of run. It is a method taking
// the error pointer (not a closure) so deferring it in the execution hot path
// allocates nothing — the steady-state zero-allocation guarantee of
// Forward/Inverse holds with fault handling armed.
func (e *engine) recoverFault(b *batch, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	err := faultErrFrom(r, e.comm, e.curPhase)
	if err == nil {
		panic(r)
	}
	e.lastExec.End = e.comm.Clock()
	// Views of this rank's arrays may never be read now: their records go, and
	// so do the arrays they lent.
	e.cscratch.views, e.rscratch.views = nil, nil
	b.disown()
	*errp = err
}

// Forward computes the forward transform of one field (in place: the field's
// box and data become the output distribution). The single-field batch rides
// in plan-held scratch, so steady-state execution allocates nothing.
func (p *Plan) Forward(f *Field) error {
	p.one[0] = f
	return p.execute(p.one[:], fft.Forward)
}

// Inverse computes the inverse transform (scaled by 1/N, so
// Inverse(Forward(x)) == x). It walks the same stage list as Forward, so it
// takes its input on InBox and leaves its output on OutBox: a round trip
// through one plan needs InBoxes == OutBoxes (the default), and a field on
// any other box — Forward's output under a plan whose distributions differ —
// is rejected with ErrMismatchedBoxes.
func (p *Plan) Inverse(f *Field) error {
	p.one[0] = f
	return p.execute(p.one[:], fft.Inverse)
}

// ForwardCtx is Forward with a cancellation context: the context is checked
// at every stage and pipeline-chunk boundary, and an expired context fails
// the execution with an error wrapping ctx.Err() (see checkCtx). Callers are
// expected to pass equivalent contexts on all ranks, the same contract as
// every other collective argument.
func (p *Plan) ForwardCtx(ctx context.Context, f *Field) error {
	p.one[0] = f
	return p.executeCtx(ctx, p.one[:], fft.Forward)
}

// InverseCtx is Inverse with a cancellation context; see ForwardCtx.
func (p *Plan) InverseCtx(ctx context.Context, f *Field) error {
	p.one[0] = f
	return p.executeCtx(ctx, p.one[:], fft.Inverse)
}

func (p *Plan) executeCtx(ctx context.Context, fs []*Field, dir fft.Direction) error {
	p.ctx = ctx
	defer func() { p.ctx = nil }()
	return p.execute(fs, dir)
}

// ForwardBatch transforms a batch of fields through one fused plan execution
// (the batchFused policy).
func (p *Plan) ForwardBatch(fs []*Field) error { return p.execute(fs, fft.Forward) }

// InverseBatch is the batched inverse transform.
func (p *Plan) InverseBatch(fs []*Field) error { return p.execute(fs, fft.Inverse) }

// ForwardGlobal transforms a batch of whole grids in place: datas[i] is entry
// i's N0×N1×N2 row-major array (axis 2 contiguous), and every rank passes the
// same arrays, so no scatter precedes the call and no gather follows it. When
// every reshape would lend (fp64 wire; no checksums, ABFT sums or fault plan)
// and no checkpoint store is attached, each rank transforms its box where it
// sits in the arrays and the reshapes are charged, not copied. Otherwise the
// input reshape reads each rank's blocks straight out of the arrays and the
// output reshape writes each rank's output box straight into them — a plan
// without such a reshape copies the rank's own window instead. Output bits and
// virtual cost are those of scattering the arrays over InBoxes, ForwardBatch,
// and gathering from OutBoxes. Nothing else may touch the arrays until every
// rank has returned; a failed call may leave them partly written. An entry
// that is not N0·N1·N2 long, or two entries that share memory, fail the call
// with ErrBadConfig on every rank before anything is exchanged.
func (p *Plan) ForwardGlobal(datas [][]complex128) error {
	return p.executeGlobal(datas, fft.Forward)
}

// InverseGlobal is ForwardGlobal's inverse transform, scaled by 1/N.
func (p *Plan) InverseGlobal(datas [][]complex128) error {
	return p.executeGlobal(datas, fft.Inverse)
}

func (p *Plan) executeGlobal(datas [][]complex128, dir fft.Direction) error {
	for len(p.grid) < len(datas) {
		p.grid = append(p.grid, new(Field))
	}
	fs := p.grid[:len(datas)]
	err := p.run(p.stages, &batch{fields: fs, whole: datas}, dir, 0, batchFused)
	for _, f := range fs {
		*f = Field{}
	}
	return err
}

// LastExec returns information about the most recent (possibly failed)
// execution on this rank. Like execution itself, it is rank-local: call it
// from the goroutine that ran the plan.
func (p *Plan) LastExec() ExecInfo { return p.lastExec }

func (p *Plan) execute(fields []*Field, dir fft.Direction) error {
	return p.run(p.stages, &batch{fields: fields}, dir, 0, batchFused)
}
