package fft

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPlanCacheConcurrent hammers NewPlan from many goroutines — a regression
// test (run under -race by the race CI lane) for the shared plan cache that
// every rank goroutine of a simulated world hits concurrently. All callers
// must observe one canonical plan per length.
func TestPlanCacheConcurrent(t *testing.T) {
	lengths := []int{3, 7, 16, 60, 64, 100, 128, 243, 256, 500, 512}
	const goroutines = 32
	got := make([][]*Plan, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*Plan, len(lengths))
			for rep := 0; rep < 50; rep++ {
				for i, n := range lengths {
					p := NewPlan(n)
					if p.N() != n {
						t.Errorf("NewPlan(%d).N() = %d", n, p.N())
						return
					}
					got[g][i] = p
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range lengths {
			if got[g][i] != got[0][i] {
				t.Errorf("goroutine %d got a different plan for n=%d", g, lengths[i])
			}
		}
	}
}

// TestTransformBatchConcurrentRanks runs batched transforms from many
// goroutines at once, as rank goroutines do, sharing plans — a -race
// regression test for the pooled scratch buffers.
func TestTransformBatchConcurrentRanks(t *testing.T) {
	const ranks = 16
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for _, n := range []int{32, 48} {
				batch := 1 << 14 / n
				data := make([]complex128, n*batch)
				for i := range data {
					data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				want := append([]complex128(nil), data...)
				p := NewPlan(n)
				p.TransformBatch(data, 1, n, batch, Forward)
				p.TransformBatch(data, 1, n, batch, Inverse)
				for i := range data {
					d := data[i] - want[i]
					if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
						t.Errorf("rank %d n=%d: round trip diverged at %d", r, n, i)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestTransformSteadyStateAllocs verifies the pooled scratch path: after
// warm-up, contiguous (across rows too, with an odd line), strided and
// Bluestein batched transforms allocate nothing per call.
func TestTransformSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under -race; allocation counts are meaningless")
	}
	for _, tc := range []struct {
		name            string
		n, stride, dist int
		batch           int // contiguous layouts; a strided one runs stride lines
	}{
		{"pow2-contig", 64, 1, 64, 8},
		{"pow2-contig rows, odd line", 128, 1, 131, 17},
		{"pow2-contig rows of two", 2048, 1, 2051, 17},
		{"pow2-strided", 64, 8, 1, 0},
		{"32-point strided rows", 32, 16, 1, 0},
		{"32-point contig rows", 32, 1, 32, 16},
		{"bluestein", 60, 1, 60, 8},
	} {
		p := NewPlan(tc.n)
		batch := tc.batch
		var size int
		if tc.stride == 1 {
			size = tc.dist * batch
		} else {
			size = tc.stride * tc.n
			batch = tc.stride
		}
		data := make([]complex128, size)
		run := func() { p.TransformBatch(data, tc.stride, tc.dist, batch, Forward) }
		run() // warm the pools
		if avg := testing.AllocsPerRun(50, run); avg >= 1 {
			t.Errorf("%s: TransformBatch allocates %.2f times per call in steady state", tc.name, avg)
		}
	}
}
