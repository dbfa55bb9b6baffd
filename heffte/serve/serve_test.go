package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/heffte"
)

// randomSignal builds a reproducible global array.
func randomSignal(global [3]int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]complex128, global[0]*global[1]*global[2])
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return data
}

// runReference executes the requests one Forward (or Inverse) at a time on a
// dedicated world with the same ranks and decomposition — the sequential
// baseline coalesced batches must match bit for bit. datas are transformed
// in place.
func runReference(t *testing.T, global [3]int, ranks int, decomp heffte.Decomposition, dir Direction, datas [][]complex128) {
	t.Helper()
	boxes := heffte.DefaultBricks(ranks, global)
	sets := make([][]*heffte.Field, len(datas)) // sets[i][r]: rank r's share of entry i
	for i, d := range datas {
		sets[i] = Scatter(global, d, boxes)
	}
	w := heffte.NewWorld(heffte.Summit(), ranks, heffte.WorldOptions{GPUAware: true})
	w.Run(func(c *heffte.Comm) {
		plan, err := heffte.NewPlan(c, heffte.Config{Global: global, Opts: heffte.Options{Decomp: decomp}})
		if err != nil {
			panic(err)
		}
		defer plan.Close()
		for i := range datas {
			var e error
			if dir == Inverse {
				e = plan.Inverse(sets[i][c.Rank()])
			} else {
				e = plan.Forward(sets[i][c.Rank()])
			}
			if e != nil {
				panic(e)
			}
		}
	})
	for i, d := range datas {
		Gather(global, d, sets[i])
	}
}

func equalData(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCoalescingBitIdentical is the core correctness contract: N concurrent
// Submits of the same shape — fused into batches by the server — produce
// results bit-identical to N sequential Forward calls.
func TestCoalescingBitIdentical(t *testing.T) {
	global := [3]int{16, 16, 16}
	const ranks, n = 4, 10
	srv := New(Config{Ranks: ranks, Window: 100 * time.Millisecond, MaxBatch: 8, Workers: 1})
	defer srv.Close()

	served := make([][]complex128, n)
	want := make([][]complex128, n)
	for i := range served {
		served[i] = randomSignal(global, int64(i+1))
		want[i] = append([]complex128(nil), served[i]...)
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := srv.Submit(context.Background(), &Request{Global: global, Data: served[i]})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	runReference(t, global, ranks, heffte.DecompAuto, Forward, want)
	for i := range served {
		if !equalData(served[i], want[i]) {
			t.Fatalf("request %d: coalesced result differs from sequential Forward", i)
		}
	}

	st := srv.Stats()
	if st.Scheduler.Total.Completed != n {
		t.Fatalf("Completed = %d, want %d", st.Scheduler.Total.Completed, n)
	}
	if st.Scheduler.Total.Batches >= n {
		t.Fatalf("no coalescing happened: %d batches for %d requests", st.Scheduler.Total.Batches, n)
	}
	if mb := st.Scheduler.Total.MeanBatch(); mb <= 1 {
		t.Fatalf("MeanBatch = %v, want > 1", mb)
	}
}

// TestRoundTrip: a forward submit followed by an inverse submit recovers the
// signal (inverse scaling included), through two shape keys sharing one
// engine.
func TestRoundTrip(t *testing.T) {
	global := [3]int{8, 12, 8} // non-pow2 axis exercises Bluestein kernels
	srv := New(Config{Ranks: 4, Window: -1})
	defer srv.Close()

	orig := randomSignal(global, 7)
	data := append([]complex128(nil), orig...)
	ctx := context.Background()
	if err := srv.Submit(ctx, &Request{Global: global, Data: data}); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if err := srv.Submit(ctx, &Request{Global: global, Direction: Inverse, Data: data}); err != nil {
		t.Fatalf("inverse: %v", err)
	}
	for i := range data {
		if d := data[i] - orig[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, data[i], orig[i])
		}
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 || st.Cache.Hits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1 (both directions share one engine)", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestMidBatchCancellation: cancelling one request of a forming batch leaves
// its batch-mates bit-identical to the sequential baseline and its own
// buffer untouched.
func TestMidBatchCancellation(t *testing.T) {
	global := [3]int{16, 16, 16}
	const ranks = 4
	srv := New(Config{Ranks: ranks, Window: 300 * time.Millisecond, MaxBatch: 8, Workers: 1})
	defer srv.Close()

	mates := make([][]complex128, 3)
	want := make([][]complex128, 3)
	for i := range mates {
		mates[i] = randomSignal(global, int64(100+i))
		want[i] = append([]complex128(nil), mates[i]...)
	}
	victim := randomSignal(global, 999)
	victimOrig := append([]complex128(nil), victim...)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	victimErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		victimErr <- srv.Submit(ctx, &Request{Global: global, Data: victim})
	}()
	for i := range mates {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := srv.Submit(context.Background(), &Request{Global: global, Data: mates[i]}); err != nil {
				t.Errorf("mate %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // all four are queued inside the window
	cancel()
	wg.Wait()

	if err := <-victimErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v, want context.Canceled", err)
	}
	// Quiesce before touching buffers (see Request ownership note).
	waitUntil(t, func() bool { return srv.Stats().Scheduler.Total.InFlight == 0 })

	runReference(t, global, ranks, heffte.DecompAuto, Forward, want)
	for i := range mates {
		if !equalData(mates[i], want[i]) {
			t.Fatalf("batch-mate %d corrupted by mid-batch cancellation", i)
		}
	}
	if !equalData(victim, victimOrig) {
		t.Fatal("cancelled request's buffer was written")
	}
	if srv.Stats().Scheduler.Total.Cancelled == 0 {
		t.Fatal("Cancelled counter not bumped")
	}
}

// TestDeadlineObservable: deadline-exceeded requests fail with the typed
// sentinel and are observable in Server.Stats.
func TestDeadlineObservable(t *testing.T) {
	global := [3]int{8, 8, 8}
	srv := New(Config{Ranks: 2, Window: 50 * time.Millisecond})
	defer srv.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := srv.Submit(ctx, &Request{Global: global, Data: randomSignal(global, 1)})
	if !errors.Is(err, heffte.ErrDeadlineExceeded) {
		t.Fatalf("expired submit: %v, want heffte.ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submit should also match context.DeadlineExceeded: %v", err)
	}
	st := srv.Stats()
	if st.Scheduler.Total.DeadlineExceeded == 0 {
		t.Fatal("DeadlineExceeded not visible in Stats")
	}
}

// TestOverloadFastFail: beyond MaxQueue, Submit rejects immediately with
// heffte.ErrOverloaded while admitted requests still complete.
func TestOverloadFastFail(t *testing.T) {
	global := [3]int{8, 8, 8}
	srv := New(Config{Ranks: 2, Window: 500 * time.Millisecond, MaxQueue: 2, MaxBatch: 8, Workers: 1})
	defer srv.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var overloaded, completed int
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := srv.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, int64(i))})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				completed++
			case errors.Is(err, heffte.ErrOverloaded):
				overloaded++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if overloaded == 0 {
		t.Fatal("no submit was rejected with ErrOverloaded")
	}
	if completed == 0 {
		t.Fatal("no submit completed")
	}
	if srv.Stats().Scheduler.Total.Rejected == 0 {
		t.Fatal("Rejected not visible in Stats")
	}
}

// TestBadRequests: validation failures classify as heffte.ErrBadConfig.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Ranks: 2})
	defer srv.Close()
	ctx := context.Background()
	cases := []*Request{
		nil,
		{Global: [3]int{0, 8, 8}, Data: []complex128{}},
		{Global: [3]int{4, 4, 4}, Data: make([]complex128, 63)},
		{Global: [3]int{4, 4, 4}, Direction: Direction(9), Data: make([]complex128, 64)},
		{Global: [3]int{4, 4, 4}, Decomp: heffte.Decomposition(42), Data: make([]complex128, 64)},
	}
	for i, req := range cases {
		if err := srv.Submit(ctx, req); !errors.Is(err, heffte.ErrBadConfig) {
			t.Errorf("case %d: %v, want heffte.ErrBadConfig", i, err)
		}
	}
}

// TestOversizedGridRejected: a grid whose complex128 array's byte count
// overflows an int is heffte.ErrBadConfig — {1<<32, 1<<32, 1} wraps its
// element count to 0, which empty Data would match. validateRequest is asked
// first, so Submit only sees a grid validation rejects.
func TestOversizedGridRejected(t *testing.T) {
	srv := New(Config{Ranks: 2})
	defer srv.Close()
	for _, g := range [][3]int{{1 << 32, 1 << 32, 1}, {1 << 31, 1 << 28, 2}} {
		req := &Request{Global: g}
		if err := validateRequest(req); !errors.Is(err, heffte.ErrBadConfig) {
			t.Fatalf("%v: validateRequest = %v, want heffte.ErrBadConfig", g, err)
		}
		if err := srv.Submit(context.Background(), req); !errors.Is(err, heffte.ErrBadConfig) {
			t.Errorf("%v: Submit = %v, want heffte.ErrBadConfig", g, err)
		}
	}
}

// TestCloseLifecycle: Close drains, and later submits fail with
// heffte.ErrServerClosed.
func TestCloseLifecycle(t *testing.T) {
	global := [3]int{8, 8, 8}
	srv := New(Config{Ranks: 2, Window: -1})
	if err := srv.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 3)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	srv.Close()
	err := srv.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 4)})
	if !errors.Is(err, heffte.ErrServerClosed) {
		t.Fatalf("Submit after Close: %v, want heffte.ErrServerClosed", err)
	}
}

// TestStatsText: the report names the shape, the cache, and the collective
// configuration each engine plan resolved to.
func TestStatsText(t *testing.T) {
	global := [3]int{8, 8, 8}
	srv := New(Config{Ranks: 2, Window: -1})
	defer srv.Close()
	if err := srv.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 5)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var b strings.Builder
	srv.WriteStats(&b)
	out := b.String()
	for _, want := range []string{"8x8x8/auto/r2/forward", "plan cache: 1/4", "engine 8x8x8/auto/r2", "comm:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats text missing %q:\n%s", want, out)
		}
	}
}

// TestStatsReportCollectiveConfig: a forced collective configuration shows up
// per engine in Stats and in the text report.
func TestStatsReportCollectiveConfig(t *testing.T) {
	global := [3]int{8, 8, 8}
	srv := New(Config{Ranks: 2, Window: -1,
		Comm: heffte.CommConfig{Algo: heffte.AlgoRing, Chunks: 2}})
	defer srv.Close()
	if err := srv.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 7)}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := srv.Stats()
	if len(st.Engines) != 1 {
		t.Fatalf("got %d engines, want 1", len(st.Engines))
	}
	phases := st.Engines[0].Comm
	if len(phases) == 0 {
		t.Fatal("EngineStats.Comm is empty")
	}
	for _, ph := range phases {
		if ph.GroupSize > 1 {
			if ph.Algo != heffte.AlgoRing {
				t.Errorf("phase %s: algo %v, want ring", ph.Label, ph.Algo)
			}
			if ph.Chunks != 2 || !ph.Overlap {
				t.Errorf("phase %s: chunks=%d overlap=%v, want 2/true", ph.Label, ph.Chunks, ph.Overlap)
			}
		}
	}
	var b strings.Builder
	srv.WriteStats(&b)
	if out := b.String(); !strings.Contains(out, "ring/2-chunk-pipelined") {
		t.Fatalf("stats text missing forced collective config:\n%s", out)
	}
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
