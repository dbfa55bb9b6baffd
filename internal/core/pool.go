package core

import (
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/mpisim"
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
// Buffers are binned by capacity class (powers of two), one sync.Pool per
// class, global rather than per plan because they flow between rank
// goroutines. A sync.Pool because what it holds is a cache, not a reservation:
// the collector empties it over two cycles, so an idle process — a server
// whose engines sit in the plan cache between bursts — gives its staging
// arrays back instead of pinning the high-water mark of its busiest exchange,
// while the victim cache carries the working set across a collection that
// lands mid-loop, which keeps steady state allocation-free. A class pools a
// pointer to the first element rather than the slice: putting a pointer in an
// interface allocates nothing, and the class fixes the length the slice is
// rebuilt with.
type bufPool[T any] struct {
	classes [48]sync.Pool // *T: the first of at least 1<<c elements
}

// class c holds buffers with cap >= 1<<c; a request for n elements is served
// from class ceil(log2 n).
func classFor(n int) int { return bits.Len(uint(n - 1)) }

func (p *bufPool[T]) get(n int) []T {
	if n == 0 {
		return []T{}
	}
	c := classFor(n)
	if x := p.classes[c].Get(); x != nil {
		return unsafe.Slice(x.(*T), 1<<c)[:n]
	}
	return make([]T, n, 1<<c)
}

func (p *bufPool[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	// Bin by the class the capacity can serve: floor(log2 cap).
	p.classes[bits.Len(uint(cap(b)))-1].Put(&b[:1][0])
}

var (
	complexPool bufPool[complex128]
	realPool    bufPool[float64]
	// blockPool recycles exchange vectors: a collective's send list once the
	// call has returned (the transport is done with it then), a P2P send list
	// once its sends have completed, and every receive list once unpacked.
	blockPool bufPool[mpisim.Block]
)

// getBlocks returns an empty exchange vector with room for n blocks. Its
// entries are zero: putBlocks clears every list it takes back.
func getBlocks(n int) []mpisim.Block { return blockPool.get(n)[:0] }

// putBlocks recycles an exchange vector, dropping every payload and view it
// names so that nothing the pool holds keeps one alive.
func putBlocks(b []mpisim.Block) {
	b = b[:cap(b)]
	clear(b)
	blockPool.put(b)
}

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
