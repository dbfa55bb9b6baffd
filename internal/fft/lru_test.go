package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
)

// dftNaive is the O(n²) reference used to validate plans that went through
// eviction and rebuild.
func dftNaive(in []complex128) []complex128 {
	n := len(in)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j%n) / float64(n)
			s += in[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

// TestPlanCacheBounded: the cache never exceeds its limit under an
// adversarial mix of lengths, and both evicted and resident plans keep
// transforming correctly.
func TestPlanCacheBounded(t *testing.T) {
	defer SetPlanCacheLimit(SetPlanCacheLimit(4))

	lengths := []int{3, 5, 6, 7, 9, 10, 11, 12, 13, 16, 17, 20, 23, 32, 48, 96}
	plans := map[int]*Plan{}
	for _, n := range lengths {
		plans[n] = NewPlan(n)
		if got := PlanCacheLen(); got > 4 {
			t.Fatalf("cache holds %d plans after inserting %d, limit 4", got, n)
		}
	}

	// Every plan — including the long-evicted ones — still transforms
	// correctly against the naive DFT.
	for _, n := range lengths {
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		want := dftNaive(in)
		got := append([]complex128(nil), in...)
		plans[n].transformContig(got, Forward)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*(1+cmplx.Abs(want[i])) {
				t.Fatalf("n=%d: mismatch at %d after eviction: got %v want %v", n, i, got[i], want[i])
			}
		}
		// Round trip through a freshly looked-up (possibly rebuilt) plan.
		p := NewPlan(n)
		p.transformContig(got, Inverse)
		for i := range got {
			if cmplx.Abs(got[i]-in[i]) > 1e-9 {
				t.Fatalf("n=%d: inverse round trip mismatch at %d", n, i)
			}
		}
	}
}

// TestPlanCacheLRUOrder: a recently touched length survives insertion of new
// lengths; the least recently used one is evicted first.
func TestPlanCacheLRUOrder(t *testing.T) {
	defer SetPlanCacheLimit(SetPlanCacheLimit(2))

	// Power-of-two lengths: Bluestein lengths would also cache their
	// power-of-two sub-plans and perturb the two-slot accounting.
	a := NewPlan(16)
	NewPlan(32)
	a2 := NewPlan(16) // touch 16: 32 becomes LRU
	if a != a2 {
		t.Fatal("touching a cached length must return the cached plan")
	}
	NewPlan(64) // evicts 32
	if a3 := NewPlan(16); a3 != a {
		t.Fatal("length 16 was evicted despite being most recently used")
	}
	if got := PlanCacheLen(); got > 2 {
		t.Fatalf("cache holds %d plans, limit 2", got)
	}
}

// TestPlanCacheConcurrentEviction hammers the bounded cache from many goroutines
// (run under -race): lookups must stay canonical per length while insertions
// and evictions interleave.
func TestPlanCacheConcurrentEviction(t *testing.T) {
	defer SetPlanCacheLimit(SetPlanCacheLimit(8))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 3 + (g*31+i)%29
				p := NewPlan(n)
				if p.N() != n {
					t.Errorf("NewPlan(%d) returned plan of length %d", n, p.N())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := PlanCacheLen(); got > 8 {
		t.Fatalf("cache holds %d plans, limit 8", got)
	}
}
