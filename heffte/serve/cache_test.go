package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/heffte"
)

// TestCacheEvictionKeepsServing: with a one-slot cache, alternating shapes
// force evictions on every switch, yet every transform stays correct and the
// counters add up.
func TestCacheEvictionKeepsServing(t *testing.T) {
	shapes := [][3]int{{8, 8, 8}, {8, 16, 8}}
	const ranks = 2
	srv := newServer(Config{Ranks: ranks, Window: -1}, 1)
	defer srv.Close()

	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for si, global := range shapes {
			data := randomSignal(global, int64(10*round+si))
			want := append([]complex128(nil), data...)
			if err := srv.Submit(ctx, &Request{Global: global, Data: data}); err != nil {
				t.Fatalf("round %d shape %v: %v", round, global, err)
			}
			runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{want})
			if !equalData(data, want) {
				t.Fatalf("round %d shape %v: result differs after eviction churn", round, global)
			}
		}
	}

	st := srv.Stats()
	if st.Cache.Resident != 1 {
		t.Fatalf("Resident = %d, want 1 (capacity)", st.Cache.Resident)
	}
	// 6 submissions over 2 alternating shapes through 1 slot: every switch is
	// a miss+eviction.
	if st.Cache.Misses < 5 || st.Cache.Evictions < 4 {
		t.Fatalf("misses/evictions = %d/%d, want >=5/>=4", st.Cache.Misses, st.Cache.Evictions)
	}
}

// TestCacheHitsOnHotShape: repeated same-shape submits build one engine and
// hit it thereafter.
func TestCacheHitsOnHotShape(t *testing.T) {
	global := [3]int{8, 8, 8}
	srv := New(Config{Ranks: 2, Window: -1})
	defer srv.Close()
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := srv.Submit(ctx, &Request{Global: global, Data: randomSignal(global, int64(i))}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Cache.Misses)
	}
	if st.Cache.Hits < 4 {
		t.Fatalf("Hits = %d, want >= 4", st.Cache.Hits)
	}
	if len(st.Engines) != 1 || st.Engines[0].Requests != 5 {
		t.Fatalf("engine stats %+v, want one engine with 5 requests", st.Engines)
	}
	if st.Engines[0].VirtualSeconds <= 0 {
		t.Fatalf("VirtualSeconds = %v, want > 0", st.Engines[0].VirtualSeconds)
	}
}

// TestCacheConcurrentMixedShapes hammers a two-slot cache with four shapes
// from many goroutines under -race: evictions, rebuilds and in-flight
// refcounts must coexist.
func TestCacheConcurrentMixedShapes(t *testing.T) {
	shapes := [][3]int{{8, 8, 8}, {8, 16, 8}, {16, 8, 8}, {8, 8, 16}}
	srv := newServer(Config{Ranks: 2, Window: time.Millisecond, Workers: 4, MaxQueue: 64}, 2)
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				global := shapes[(g+i)%len(shapes)]
				data := randomSignal(global, int64(g*100+i))
				if err := srv.Submit(context.Background(), &Request{Global: global, Data: data}); err != nil {
					t.Errorf("g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Scheduler.Total.Completed != 48 {
		t.Fatalf("Completed = %d, want 48", st.Scheduler.Total.Completed)
	}
	if st.Cache.Resident > 2 {
		t.Fatalf("Resident = %d exceeds capacity 2 at rest", st.Cache.Resident)
	}
}
