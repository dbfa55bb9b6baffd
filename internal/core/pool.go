package core

import (
	"math/bits"
	"sync"
)

// Array pool for the reshape hot path. Every reshape produces a freshly
// distributed array per batch entry, and an exchange that packs stages
// per-destination send buffers; at paper scale that is hundreds of megabytes
// per transform. The pool recycles them process-wide under one rule: an array
// drawn from it belongs to the plan until its last reader is done with it.
// Pack buffers ship with mpisim's Move ownership transfer and their receiver
// returns them after unpacking; the arrays a reshape retires (the previous
// distribution of a field) come back once they are packed or, when they were
// lent as views (exchange.lends), once the last receiver has copied out of
// them; the array an execution leaves in a caller's field is still the plan's,
// and comes back when the caller hands it to the next execution (see
// batchScratch). After warm-up a transform allocates no payload.
//
// The pool is a plain mutex-guarded free list, deliberately not a sync.Pool:
// buffers must survive GC cycles so steady-state allocation counts stay at
// zero (the allocation regression tests depend on it), and they flow
// between rank goroutines, so the pool is global rather than per-plan.
// Buffers are binned by capacity class (powers of two); each class keeps at
// most poolMaxPerClass entries so a pathological workload cannot pin
// unbounded memory.

// poolMaxPerClass bounds retained buffers per size class. Sized for the
// biggest simulated worlds: thousands of pack buffers of one class are alive
// at once during an exchange phase (ranks × group size), and a cap below the
// peak makes the pool thrash — every put beyond the cap is dropped and
// re-allocated on the next phase.
const poolMaxPerClass = 8192

type bufPool[T any] struct {
	mu      sync.Mutex
	classes [48][][]T
}

// class c holds buffers with cap >= 1<<c; a request for n elements is served
// from class ceil(log2 n).
func classFor(n int) int { return bits.Len(uint(n - 1)) }

func (p *bufPool[T]) get(n int) []T {
	if n == 0 {
		return []T{}
	}
	c := classFor(n)
	p.mu.Lock()
	if l := len(p.classes[c]); l > 0 {
		b := p.classes[c][l-1]
		p.classes[c][l-1] = nil
		p.classes[c] = p.classes[c][:l-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]T, n, 1<<c)
}

func (p *bufPool[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	// Bin by the class the capacity can serve: floor(log2 cap).
	c := bits.Len(uint(cap(b))) - 1
	p.mu.Lock()
	if len(p.classes[c]) < poolMaxPerClass {
		p.classes[c] = append(p.classes[c], b[:0])
	}
	p.mu.Unlock()
}

var (
	complexPool bufPool[complex128]
	realPool    bufPool[float64]
)

// ops resolves the element type's pool without boxing any slice values —
// pointer-to-interface conversions are allocation-free, so the hot path stays
// at zero allocations per call in steady state.
func ops[T any]() *bufPool[T] {
	var zero T
	if _, isReal := any(zero).(float64); isReal {
		return any(&realPool).(*bufPool[T])
	}
	return any(&complexPool).(*bufPool[T])
}

// getBuf returns a length-n slice from the element type's pool. The contents
// are NOT zeroed; callers must fully overwrite it (reshape unpack does: the
// receive boxes of a group tile the target box exactly).
func getBuf[T any](n int) []T { return ops[T]().get(n) }

// putBuf recycles a slice previously handed out by getBuf (or any slice the
// caller owns outright — e.g. a buffer received with Move).
func putBuf[T any](b []T) { ops[T]().put(b) }
