package fft

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Intra-rank parallel batch execution. The simulator runs every MPI rank as a
// goroutine, so on a many-core host the rank goroutines already provide
// coarse parallelism; this pool adds fine-grained parallelism *within* one
// rank's batched kernel without oversubscribing the machine: one bounded set
// of helper goroutines, sized by GOMAXPROCS and shared across all rank
// goroutines of the process. Work is handed off without blocking — if every
// helper is busy serving another rank, the caller simply computes its whole
// batch itself, so the pool is work-conserving and can never deadlock.
//
// Workers claim *chunks* of lines (a whole tile or row group wherever lines
// run in groups) through a shared atomic cursor, so a claim amortizes the
// cursor bump over many short transforms and never splits a group between
// workers.

// minParallelWork is the minimum batch*n element count before a batch
// considers fanning out; below it the handoff overhead dominates.
const minParallelWork = 1 << 14

// minChunkElems is the target element count of one unit-stride work claim.
const minChunkElems = 1 << 11

var (
	workerMu      sync.Mutex
	workerTarget  = runtime.GOMAXPROCS(0) // total parallelism per batch (caller + helpers)
	workerSpawned int
	jobCh         = make(chan *batchJob)

	jobFreeMu sync.Mutex
	jobFree   []*batchJob // plain free list: immune to GC, steady state allocates nothing
)

// SetWorkers bounds the total parallelism (calling goroutine plus helpers) a
// single batched transform may use, and returns the previous bound. The
// default is GOMAXPROCS at package init. n < 1 is treated as 1 (serial
// execution). Helper goroutines are started lazily and shared by every plan
// and rank.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	workerMu.Lock()
	defer workerMu.Unlock()
	prev := workerTarget
	workerTarget = n
	return prev
}

type jobKind uint8

const (
	jobComplex jobKind = iota // Plan batch over sp
	jobR2C                    // RealPlan forward: rdata (rsp) -> data (sp)
	jobC2R                    // RealPlan inverse: data (sp) -> rdata (rsp)
)

// batchJob describes one parallel batched execution. Helpers and the caller
// claim chunks of lines through the shared atomic cursor; wg tracks helper
// completion. Jobs are recycled through jobFree.
type batchJob struct {
	kind  jobKind
	plan  *Plan
	rplan *RealPlan
	data  []complex128
	rdata []float64
	sp    batchSpec // complex-side layout
	rsp   batchSpec // real-side layout (real jobs only)
	dir   Direction
	total int // lines in the batch
	chunk int // lines per claim
	span  int // claims do not cross multiples of span lines; divides total
	next  atomic.Int64
	wg    sync.WaitGroup
}

func (j *batchJob) run() {
	for {
		// Claim c is the (c mod per)-th chunk of span c/per.
		c := int(j.next.Add(1)) - 1
		per := (j.span + j.chunk - 1) / j.chunk
		lo := c/per*j.span + c%per*j.chunk
		if lo >= j.total {
			return
		}
		hi := min(lo+j.chunk, (c/per+1)*j.span)
		switch j.kind {
		case jobComplex:
			j.plan.runLines(j.data, j.sp, lo, hi, j.dir)
		case jobR2C:
			j.rplan.r2cLines(j.rdata, j.rsp, j.data, j.sp, lo, hi)
		case jobC2R:
			j.rplan.c2rLines(j.data, j.sp, j.rdata, j.rsp, lo, hi)
		}
	}
}

func getJob() *batchJob {
	jobFreeMu.Lock()
	defer jobFreeMu.Unlock()
	if n := len(jobFree); n > 0 {
		j := jobFree[n-1]
		jobFree = jobFree[:n-1]
		return j
	}
	return &batchJob{}
}

func putJob(j *batchJob) {
	j.plan = nil
	j.rplan = nil
	j.data = nil
	j.rdata = nil
	j.next.Store(0)
	jobFreeMu.Lock()
	jobFree = append(jobFree, j)
	jobFreeMu.Unlock()
}

func worker() {
	for j := range jobCh {
		j.run()
		j.wg.Done()
	}
}

// ensureHelpers spawns up to want persistent helper goroutines (process-wide)
// and returns how many helpers this batch may use.
func ensureHelpers(chunks int) int {
	workerMu.Lock()
	want := workerTarget - 1
	if want > chunks-1 {
		want = chunks - 1
	}
	for workerSpawned < workerTarget-1 {
		workerSpawned++
		go worker()
	}
	workerMu.Unlock()
	return want
}

// chunkLines picks the lines-per-claim granularity and the span claims stay
// inside: in a row layout a whole tile within one b1 group (a row group must
// not split across workers and never straddles a b1 group), elsewhere on the
// strided path a whole tile, and on the remaining unit-stride path enough
// lines to amortize the cursor.
func (p *Plan) chunkLines(sp batchSpec) (chunk, span int) {
	if _, _, rows := p.rowLayout(sp); rows {
		return p.tileLines, sp.batch2
	}
	if sp.stride == 1 {
		return max(minChunkElems/p.n, 1), sp.total()
	}
	return p.tileLines, sp.total()
}

// dispatch fans a prepared job out over the shared pool and runs it to
// completion on the calling goroutine too. It reports false (leaving the job
// untouched for the caller to reclaim) when no parallelism is available.
func dispatch(j *batchJob, chunks int) bool {
	want := ensureHelpers(chunks)
	if want <= 0 {
		return false
	}
	// Non-blocking handoff: recruit only helpers that are parked right now.
	// A busy pool degrades gracefully to the caller computing alone.
recruit:
	for i := 0; i < want; i++ {
		j.wg.Add(1)
		select {
		case jobCh <- j:
		default:
			j.wg.Done()
			break recruit
		}
	}
	j.run()
	j.wg.Wait()
	putJob(j)
	return true
}

// runBatchParallel fans the batch out over the shared pool. It reports false
// when no parallelism is available so the caller falls back to the serial
// loop without paying for a job.
func (p *Plan) runBatchParallel(data []complex128, sp batchSpec, dir Direction) bool {
	total := sp.total()
	chunk, span := p.chunkLines(sp)
	chunks := total / span * ((span + chunk - 1) / chunk)
	if chunks < 2 {
		return false
	}
	j := getJob()
	j.kind = jobComplex
	j.plan = p
	j.data = data
	j.sp = sp
	j.dir = dir
	j.total = total
	j.chunk = chunk
	j.span = span
	j.next.Store(0)
	if !dispatch(j, chunks) {
		putJob(j)
		return false
	}
	return true
}

// runRealBatchParallel is the RealPlan analogue: x and spec carry the real
// and half-spectrum sides of a batched R2C (fwd) or C2R (!fwd) execution.
// Where lines run across rows a claim is one whole row group.
func (p *RealPlan) runRealBatchParallel(x []float64, rsp batchSpec, spec []complex128, ssp batchSpec, fwd bool) bool {
	total := rsp.total()
	chunk := max(minChunkElems/p.n, 1)
	if p.acrossRows(rsp) {
		chunk = p.half.tileLines
	}
	chunks := (total + chunk - 1) / chunk
	if chunks < 2 {
		return false
	}
	j := getJob()
	j.kind = jobR2C
	if !fwd {
		j.kind = jobC2R
	}
	j.rplan = p
	j.rdata = x
	j.rsp = rsp
	j.data = spec
	j.sp = ssp
	j.total = total
	j.chunk = chunk
	j.span = total
	j.next.Store(0)
	if !dispatch(j, chunks) {
		putJob(j)
		return false
	}
	return true
}
