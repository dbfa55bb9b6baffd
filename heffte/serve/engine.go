package serve

import (
	"fmt"
	"slices"
	"sync"

	"repro/heffte"
	"repro/internal/tensor"
)

// engineKey identifies one resident engine: the transform shape minus the
// direction (one engine's plans execute both directions).
type engineKey struct {
	global [3]int
	decomp heffte.Decomposition
	ranks  int
}

func (k engineKey) String() string {
	return fmt.Sprintf("%dx%dx%d/%s/r%d", k.global[0], k.global[1], k.global[2], k.decomp, k.ranks)
}

// engineJob is one fused batch dispatched to every rank of a backend.
type engineJob struct {
	dir Direction
	// datas[i] is request i's global array, handed to every rank.
	datas [][]complex128
	wg    sync.WaitGroup
	// Written by rank 0, read by the dispatching worker after wg.Wait.
	err      error
	clockEnd float64 // rank 0 virtual clock after the batch
	virtual  float64 // virtual seconds this batch cost on rank 0
}

// ticket identifies one dispatched batch for elastic recovery: the backend
// it ran on and the checkpoint generation it executed under.
type ticket struct {
	be  *backend
	gen int
}

// backend is one incarnation of an engine's execution world: the world
// itself and its rank-loop channels. A healthy engine has exactly one backend
// for its lifetime; an elastic engine swaps in a shrunken backend after a
// rank kill (shrinkResume), so the engine identity — and its cache slot —
// survives the capacity loss.
type backend struct {
	world *heffte.World
	size  int
	epoch int

	jobs      []chan *engineJob
	done      chan struct{} // closed when the world's Run returned
	closeOnce sync.Once

	// commPhases is the collective configuration the backend's plan resolved
	// to, captured on rank 0 at plan creation (identical on every rank).
	commPhases []heffte.CommPhase
}

// close stops the rank loops and waits for the world to wind down. Callers
// must guarantee no job is in flight on this backend.
func (b *backend) close() {
	b.closeOnce.Do(func() {
		for _, ch := range b.jobs {
			close(ch)
		}
	})
	<-b.done
}

// resumeRun coordinates the in-place resume of an interrupted batch on a
// freshly shrunken backend: each rank's ResumeBatch output lands here.
type resumeRun struct {
	wg       sync.WaitGroup
	fields   [][]*heffte.Field // per rank: resumed batch entries at output
	errs     []error           // per rank
	clockEnd float64           // rank 0 clock after the resumed batch
	virtual  float64
}

func (r *resumeRun) firstErr() error {
	for _, e := range r.errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// engine is a resident execution backend for one shape: a long-lived
// simulated world whose rank goroutines hold a collectively created plan and
// loop over dispatched jobs. Keeping world and plans alive across batches is
// what the plan cache exists for — plan construction (box analysis, reshape
// schedules, kernel tables) happens once per shape, not once per request.
type engine struct {
	key  engineKey
	comm heffte.CommConfig
	// store holds the engine's phase checkpoints when the server runs
	// elastic (nil otherwise); one store per engine, shared across backends.
	store *heffte.CheckpointStore
	// faulty says the engine's worlds carry a fault plan (a shrink keeps the
	// survivors' share of it).
	faulty bool

	// be is the current backend. Guarded by BOTH dispatchMu and statsMu: a
	// swap takes both, so readers may hold either.
	be *backend

	// dispatchMu serializes job dispatch so concurrent workers enqueue jobs
	// in the same order on every rank — a collective execution must stay
	// collective. It also pins the backend and checkpoint generation a batch
	// executes under.
	dispatchMu sync.Mutex
	// shrinkMu serializes elastic recoveries: one shrink+resume at a time.
	shrinkMu sync.Mutex

	statsMu    sync.Mutex
	batches    uint64
	requests   uint64
	resumed    uint64  // batches finished via shrink+resume on this engine
	virtualSec float64 // rank 0 virtual clock: total engine busy virtual time

	// slots is the rank→GPU-slot map of the CURRENT backend; the health
	// ledger attributes per-rank suspicion through it. lastInteg/lastSusp
	// are the current world's counters already harvested (deltas); carry*
	// hold the final unharvested deltas of backends retired by a shrink.
	slots      []int
	lastInteg  heffte.IntegritySnapshot
	lastSusp   []int64
	carryInteg heffte.IntegritySnapshot
	carrySusp  map[int]int64
}

// backend returns the current backend.
func (e *engine) backend() *backend {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.be
}

// harvest returns the integrity counters and per-GPU-slot suspicion the
// engine accumulated since the previous harvest, across backend swaps.
func (e *engine) harvest() (heffte.IntegritySnapshot, map[int]int64) {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	d, perSlot := e.harvestLocked()
	d.Add(e.carryInteg)
	e.carryInteg = heffte.IntegritySnapshot{}
	for sl, v := range e.carrySusp {
		perSlot[sl] += v
	}
	e.carrySusp = nil
	return d, perSlot
}

// harvestLocked drains the current backend's counter deltas. statsMu held.
func (e *engine) harvestLocked() (heffte.IntegritySnapshot, map[int]int64) {
	snap := e.be.world.IntegrityCounters().Snapshot()
	susp := e.be.world.SuspicionScores()
	d := snap
	prev := e.lastInteg
	d.ChecksumChecks -= prev.ChecksumChecks
	d.ChecksumMismatches -= prev.ChecksumMismatches
	d.Retransmits -= prev.Retransmits
	d.InvariantChecks -= prev.InvariantChecks
	d.InvariantFailures -= prev.InvariantFailures
	d.PhaseReexecs -= prev.PhaseReexecs
	e.lastInteg = snap
	perSlot := make(map[int]int64)
	for r, v := range susp {
		dv := v
		if r < len(e.lastSusp) {
			dv -= e.lastSusp[r]
		}
		if dv != 0 && r < len(e.slots) {
			perSlot[e.slots[r]] += dv
		}
	}
	e.lastSusp = susp
	return d, perSlot
}

// engineWorldOpts assembles the world options every engine of a server runs
// with: GPU-awareness, an optional fault schedule, the integrity defenses,
// and the (possibly quarantine-adjusted) placement.
func engineWorldOpts(cfg Config, fp *heffte.FaultPlan, place heffte.Placement) heffte.WorldOptions {
	return heffte.WorldOptions{GPUAware: !cfg.NoGPUAware, Faults: fp, Placement: place, Integrity: cfg.Integrity}
}

// newEngine starts the world on the Summit machine model and creates the
// plan on every rank. It returns after plan creation succeeded (or failed)
// everywhere. A non-nil fault plan arms the world with a deterministic fault
// schedule (chaos testing); elastic arms phase checkpointing so a rank kill
// can shrink-and-resume instead of losing the engine.
func newEngine(k engineKey, wo heffte.WorldOptions, comm heffte.CommConfig, slots []int, elastic bool) (*engine, error) {
	e := &engine{
		key:    k,
		comm:   comm,
		faulty: wo.Faults != nil,
		slots:  slots,
	}
	if elastic {
		e.store = heffte.NewCheckpointStore()
	}
	w := heffte.NewWorld(heffte.Summit(), k.ranks, wo)
	be, err := e.startBackend(w, k.decomp, nil)
	if err != nil {
		return nil, err
	}
	e.be = be
	return e, nil
}

// startBackend launches a world's rank loops: collective plan creation,
// optional in-place resume of an interrupted batch (res != nil), then the
// job loop. Returns once plan creation succeeded (or failed) on every rank;
// a resume, when requested, completes when res.wg is drained.
func (e *engine) startBackend(w *heffte.World, decomp heffte.Decomposition, res *resumeRun) (*backend, error) {
	size := w.Size()
	be := &backend{
		world: w,
		size:  size,
		epoch: w.Epoch(),
		jobs:  make([]chan *engineJob, size),
		done:  make(chan struct{}),
	}
	for r := range be.jobs {
		be.jobs[r] = make(chan *engineJob, 1)
	}
	if res != nil {
		res.fields = make([][]*heffte.Field, size)
		res.errs = make([]error, size)
		res.wg.Add(size)
	}
	errc := make(chan error, 1)
	go func() {
		defer close(be.done)
		w.Run(func(c *heffte.Comm) {
			// Plan construction is collective; Protect keeps a fault unwinding
			// it from escaping the rank function (errc must always receive).
			var plan *heffte.Plan
			var err error
			if ferr := c.Protect(func() {
				plan, err = heffte.NewPlan(c, heffte.Config{
					Global: e.key.global,
					Opts:   heffte.Options{Decomp: decomp, Comm: e.comm, Checkpoints: e.store},
				})
			}); ferr != nil {
				err = ferr
			}
			if c.Rank() == 0 {
				if err == nil {
					// Written before errc is signalled, so the constructor's
					// happens-before edge publishes it to stats readers.
					be.commPhases = plan.CommPhases()
				}
				errc <- err
			}
			if err != nil {
				// Identical Config on every rank fails identically (and faults
				// abort the whole world), so all ranks exit together and Run
				// returns.
				if res != nil {
					res.errs[c.Rank()] = err
					res.wg.Done()
				}
				return
			}
			defer plan.Close()
			if res != nil {
				// Finish the batch the kill interrupted before serving new
				// work. ResumeBatch surfaces its own faults as errors.
				fields, rerr := plan.ResumeBatch()
				res.fields[c.Rank()] = fields
				res.errs[c.Rank()] = rerr
				if c.Rank() == 0 && rerr == nil {
					li := plan.LastExec()
					res.clockEnd = li.End
					res.virtual = li.End - li.Start
				}
				res.wg.Done()
			}
			for job := range be.jobs[c.Rank()] {
				var jerr error
				if job.dir == Inverse {
					jerr = plan.InverseGlobal(job.datas)
				} else {
					jerr = plan.ForwardGlobal(job.datas)
				}
				if c.Rank() == 0 {
					job.err = jerr
					li := plan.LastExec()
					job.clockEnd = li.End
					job.virtual = li.End - li.Start
				}
				job.wg.Done()
			}
		})
	}()
	if err := <-errc; err != nil {
		be.close()
		return nil, err
	}
	return be, nil
}

// execute runs one fused batched transform of the requests' own arrays
// (Plan.ForwardGlobal on every rank): each rank transforms its box of each
// req.Data where it sits and the reshapes are charged, not copied — or, with
// integrity, a fault plan or checkpoints, the input reshape reads each
// req.Data and the output reshape writes it — so nothing is scattered or
// gathered.
// Results are bit-identical to executing the requests one by one: batch
// entries touch disjoint data. The returned ticket identifies the backend and
// checkpoint generation the batch ran under, for elastic recovery.
func (e *engine) execute(dir Direction, reqs []*Request) (ticket, error) {
	job := &engineJob{dir: dir, datas: make([][]complex128, len(reqs))}
	for i, req := range reqs {
		job.datas[i] = req.Data
	}
	// A batch that fails may have written part of its arrays, and only an
	// injected fault fails one once it has started: an engine with a fault
	// plan keeps the inputs to put back, so retries, splits and resumes start
	// from the data as submitted.
	var saved [][]complex128
	if e.faulty {
		saved = make([][]complex128, len(reqs))
		for i, d := range job.datas {
			saved[i] = slices.Clone(d)
		}
	}
	e.dispatchMu.Lock()
	be := e.be
	job.wg.Add(be.size)
	tk := ticket{be: be}
	if e.store != nil {
		// One checkpoint generation per batch, pinned under dispatchMu: a
		// resume only trusts trails of the generation it is recovering.
		tk.gen = e.store.Advance()
	}
	for r := range be.jobs {
		be.jobs[r] <- job
	}
	e.dispatchMu.Unlock()
	job.wg.Wait()
	if job.err == nil {
		// A fault on a rank other than 0 can leave rank 0's own execution
		// clean; the world's sticky fault error still fails the batch (its
		// outputs may be incomplete) and gets the engine evicted.
		job.err = be.world.FaultError()
	}
	if job.err != nil {
		for i, d := range saved {
			copy(job.datas[i], d)
		}
		return tk, fmt.Errorf("serve: engine %s: %w", e.key, job.err)
	}
	e.statsMu.Lock()
	e.batches++
	e.requests += uint64(len(reqs))
	e.virtualSec = job.clockEnd
	e.statsMu.Unlock()
	return tk, nil
}

func (e *engine) stats() EngineStats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	shape := e.key.String()
	if e.be.epoch > 0 {
		shape = fmt.Sprintf("%s@e%d(r%d)", shape, e.be.epoch, e.be.size)
	}
	return EngineStats{
		Shape:          shape,
		Epoch:          e.be.epoch,
		Ranks:          e.be.size,
		Batches:        e.batches,
		Requests:       e.requests,
		Resumed:        e.resumed,
		VirtualSeconds: e.virtualSec,
		Comm:           e.be.commPhases,
	}
}

// close stops the current backend's rank loops and waits for its world to
// wind down. Callers must guarantee no job is in flight (the cache's
// refcount does); backends retired by shrinks are already closed.
func (e *engine) close() {
	e.backend().close()
}

// Scatter splits a global row-major N0×N1×N2 array across boxes, returning
// one field per box holding an exact copy of its sub-array. It is the
// distribution step a caller performs before driving a heffte.Plan's field
// API directly (cmd/fftserve -mode perplan, the benchmark's scatter/gather
// row). The server itself no longer copies: its engines hand each request's
// array to Plan.ForwardGlobal, which gives the bits of Scatter → ForwardBatch
// → Gather.
func Scatter(global [3]int, data []complex128, boxes []heffte.Box3) []*heffte.Field {
	fields := make([]*heffte.Field, len(boxes))
	for r, b := range boxes {
		fields[r] = heffte.NewField(b)
		tensor.Pack(data, tensor.FullBox(global), b, fields[r].Data)
	}
	return fields
}

// Gather is the inverse of Scatter: it copies each field's (in-place
// transformed) local array back into the global one.
func Gather(global [3]int, data []complex128, fields []*heffte.Field) {
	for _, f := range fields {
		tensor.Unpack(data, tensor.FullBox(global), f.Box, f.Data)
	}
}
