package fft

import (
	"container/list"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Direction selects the transform sign convention.
type Direction int

const (
	// Forward applies exp(-2πi kn/N), matching equation (1) of the paper.
	Forward Direction = iota
	// Inverse applies exp(+2πi kn/N) and scales by 1/N so that
	// Inverse(Forward(x)) == x.
	Inverse
)

func (d Direction) String() string {
	if d == Forward {
		return "forward"
	}
	return "inverse"
}

// Plan holds the precomputed tables for transforms of a fixed length.
// A Plan is safe for concurrent use by multiple goroutines once created.
type Plan struct {
	n int

	// Power-of-two machinery (empty when n is not a power of two, or when
	// n <= 4 and the unrolled codelets need no tables).
	rev       []int32         // bit-reversal permutation
	tw4       [2][][]twiddle3 // per-direction, per-pass fused radix-4 twiddles
	preRadix2 bool            // odd log2(n): one radix-2 fix-up stage first
	firstTabS int             // quarter-block size of the first tabulated pass

	// Bluestein machinery (nil when n is a power of two).
	bluestein *bluesteinPlan

	// scratch recycles the Bluestein convolution buffer so steady-state
	// transforms allocate nothing. Buffers are scratchLen long: the Bluestein
	// length m when the plan is a Bluestein plan, n otherwise.
	scratch    sync.Pool // *[]complex128, len scratchLen
	scratchLen int

	// tile recycles the strided-batch group buffers (tileLines·n elements,
	// see blocked.go).
	tile      sync.Pool // *[]complex128, len tileLines*n
	tileLines int
}

// getScratch returns a zero-filled-on-demand work buffer of length
// p.scratchLen (callers must not assume the contents are zero).
func (p *Plan) getScratch() *[]complex128 {
	if v := p.scratch.Get(); v != nil {
		return v.(*[]complex128)
	}
	buf := make([]complex128, p.scratchLen)
	return &buf
}

func (p *Plan) putScratch(b *[]complex128) { p.scratch.Put(b) }

type bluesteinPlan struct {
	m     int          // power-of-two length >= 2n-1
	sub   *Plan        // power-of-two sub-plan of length m
	chirp []complex128 // w[k] = exp(-iπ k²/n), k < n
	// bq[d] is the precomputed forward transform (length m) of the chirp
	// filter for direction d.
	bq [2][]complex128
}

// The process-wide plan cache is a bounded LRU: distributed plans resolve
// their kernel plans once at build time, so the cache exists to make repeated
// plan construction cheap, not to hold every length ever seen. Bounding it
// matters once arbitrary shapes arrive from outside (the heffte/serve layer
// accepts client-chosen extents): an adversarial shape mix must not grow a
// package-global map without limit. Evicted plans stay fully usable by
// whoever holds them — eviction only drops the cache's reference.
var (
	planCacheMu    sync.Mutex
	planCache      = map[int]*list.Element{} // value: *cacheEntry
	planCacheList  = list.New()              // front = most recently used
	planCacheLimit = DefaultPlanCacheLimit
)

// DefaultPlanCacheLimit is the default bound on distinct cached lengths. A
// production shape mix touches a handful of lengths (paper grids use a dozen);
// 64 leaves ample headroom while capping worst-case retention (a plan of
// length n holds O(n) table memory, plus pooled scratch).
const DefaultPlanCacheLimit = 64

type cacheEntry struct {
	n int
	p *Plan
}

// SetPlanCacheLimit bounds the plan cache to at most limit distinct lengths
// (minimum 1), evicting least-recently-used plans if it currently holds more,
// and returns the previous limit. Intended for tests and for services tuning
// memory against a hostile shape mix.
func SetPlanCacheLimit(limit int) int {
	if limit < 1 {
		limit = 1
	}
	planCacheMu.Lock()
	defer planCacheMu.Unlock()
	old := planCacheLimit
	planCacheLimit = limit
	evictLockedLRU()
	return old
}

// PlanCacheLen reports how many plans the cache currently holds.
func PlanCacheLen() int {
	planCacheMu.Lock()
	defer planCacheMu.Unlock()
	return planCacheList.Len()
}

// evictLockedLRU drops least-recently-used entries beyond the limit.
func evictLockedLRU() {
	for planCacheList.Len() > planCacheLimit {
		back := planCacheList.Back()
		delete(planCache, back.Value.(*cacheEntry).n)
		planCacheList.Remove(back)
	}
}

// NewPlan returns a plan for transforms of length n, caching plans in a
// bounded LRU so that repeated requests for hot lengths are cheap. n must be
// >= 1.
//
// The cache is safe under concurrent rank goroutines; plan construction
// happens outside the lock, with the first finished builder winning so every
// caller observes one canonical plan per length. Bluestein plans obtain their
// power-of-two sub-plan through the same cache, so twiddle and bit-reversal
// tables are shared across plan lookups instead of being recomputed. A plan
// evicted while still referenced (by a distributed plan's stages or a
// Bluestein parent) remains valid; only the cache forgets it.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid transform length %d", n))
	}
	planCacheMu.Lock()
	if el, ok := planCache[n]; ok {
		planCacheList.MoveToFront(el)
		p := el.Value.(*cacheEntry).p
		planCacheMu.Unlock()
		return p
	}
	planCacheMu.Unlock()
	// Build outside the lock: initBluestein recursively calls NewPlan for its
	// power-of-two sub-plan. Concurrent builders of the same length are
	// deduplicated below (construction is a pure function of n).
	p := newPlanUncached(n)
	planCacheMu.Lock()
	if el, ok := planCache[n]; ok {
		planCacheList.MoveToFront(el)
		p = el.Value.(*cacheEntry).p
	} else {
		planCache[n] = planCacheList.PushFront(&cacheEntry{n: n, p: p})
		evictLockedLRU()
	}
	planCacheMu.Unlock()
	return p
}

func newPlanUncached(n int) *Plan {
	p := &Plan{n: n, scratchLen: n, tileLines: tileLinesFor(n)}
	if isPow2(n) {
		p.initPow2()
	} else {
		p.initBluestein()
		p.scratchLen = p.bluestein.m
	}
	return p
}

// N reports the transform length of the plan.
func (p *Plan) N() int { return p.n }

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << (bits.Len(uint(n - 1)))
}

func (p *Plan) initBluestein() {
	n := p.n
	b := &bluesteinPlan{m: nextPow2(2*n - 1)}
	b.sub = NewPlan(b.m)
	b.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Use k² mod 2n to keep the argument small and the chirp exact.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := math.Pi * float64(kk) / float64(n)
		b.chirp[k] = complex(math.Cos(ang), -math.Sin(ang))
	}
	for d := 0; d < 2; d++ {
		q := make([]complex128, b.m)
		for k := 0; k < n; k++ {
			c := b.chirp[k]
			if Direction(d) == Inverse {
				c = complex(real(c), -imag(c))
			}
			// Filter is the conjugate chirp, symmetric around 0 (mod m).
			cc := complex(real(c), -imag(c))
			q[k] = cc
			if k > 0 {
				q[b.m-k] = cc
			}
		}
		b.sub.kernelPow2(q, Forward, 1)
		b.bq[d] = q
	}
	p.bluestein = b
}

func (p *Plan) transformBluestein(data []complex128, dir Direction) {
	b := p.bluestein
	n := p.n
	sp := p.getScratch()
	defer p.putScratch(sp)
	a := (*sp)[:b.m]
	// The convolution relies on zero padding beyond n; pooled buffers carry
	// stale data, so clear the tail explicitly.
	clear(a[n:])
	for k := 0; k < n; k++ {
		c := b.chirp[k]
		if dir == Inverse {
			c = complex(real(c), -imag(c))
		}
		a[k] = data[k] * c
	}
	wp := b.sub.getScratch()
	work := (*wp)[:b.m]
	b.sub.kernelPow2Buf(a, work, Forward, 1)
	q := b.bq[dir]
	for i := range a {
		a[i] *= q[i]
	}
	b.sub.kernelPow2Buf(a, work, Inverse, 1)
	b.sub.putScratch(wp)
	// The two opposite-direction sub-transforms cancel their scaling except
	// for the 1/m of the inverse; the transform's own inverse 1/n rides the
	// same output multiply, so no separate scaling sweep runs.
	invM := 1 / float64(b.m)
	if dir == Inverse {
		invM /= float64(n)
	}
	for k := 0; k < n; k++ {
		c := b.chirp[k]
		if dir == Inverse {
			c = complex(real(c), -imag(c))
		}
		data[k] = a[k] * c * complex(invM, 0)
	}
}

// Transform2D computes an in-place 2-D transform of a row-major n0×n1 array
// (n1 contiguous).
func Transform2D(data []complex128, n0, n1 int, dir Direction) {
	if len(data) != n0*n1 {
		panic(fmt.Sprintf("fft: Transform2D length %d != %d*%d", len(data), n0, n1))
	}
	// Rows: contiguous transforms of length n1.
	NewPlan(n1).TransformBatch(data, 1, n1, n0, dir)
	// Columns: strided transforms of length n0.
	NewPlan(n0).TransformBatch(data, n1, 1, n1, dir)
}

// Transform3D computes an in-place 3-D transform of a row-major n0×n1×n2
// array (n2 contiguous, n0 slowest). This is the serial reference against
// which the distributed plans of internal/core are validated.
func Transform3D(data []complex128, n0, n1, n2 int, dir Direction) {
	if len(data) != n0*n1*n2 {
		panic(fmt.Sprintf("fft: Transform3D length %d != %d*%d*%d", len(data), n0, n1, n2))
	}
	// Along n2: contiguous.
	NewPlan(n2).TransformBatch(data, 1, n2, n0*n1, dir)
	// Along n1: stride n2, one nested batched call over all (i0, i2) pairs —
	// the row groups see the whole middle-axis batch.
	NewPlan(n1).TransformNested(data, n2, n1*n2, n0, 1, n2, dir)
	// Along n0: stride n1*n2.
	p0 := NewPlan(n0)
	p0.TransformBatch(data, n1*n2, 1, n1*n2, dir)
}
