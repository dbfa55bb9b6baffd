package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/heffte"
)

func killPlan(rank int) *heffte.FaultPlan {
	return &heffte.FaultPlan{Timeout: 0.5, Events: []heffte.FaultEvent{
		{Kind: heffte.FaultKill, Rank: rank, Op: 0},
	}}
}

// TestSubmitAfterCloseTyped: submissions after Close fail with the typed
// sentinel, classifiable with errors.Is instead of string matching.
func TestSubmitAfterCloseTyped(t *testing.T) {
	s := New(Config{Ranks: 2})
	s.Close()
	global := [3]int{4, 4, 4}
	err := s.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 1)})
	if !errors.Is(err, heffte.ErrServerClosed) {
		t.Fatalf("Submit after Close = %v, want heffte.ErrServerClosed", err)
	}
}

// TestRetryRecoversFaultyBuild: the first engine built for a shape dies on
// its first batch; the retry path evicts it, rebuilds a clean engine, and the
// request completes with the correct spectrum — the submitter never sees the
// fault.
func TestRetryRecoversFaultyBuild(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:        ranks,
		MaxRetries:   2,
		RetryBackoff: 50 * time.Microsecond,
		EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
			if build == 0 {
				return killPlan(1)
			}
			return nil
		},
	})
	defer s.Close()

	data := randomSignal(global, 3)
	want := append([]complex128(nil), data...)
	runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{want})

	if err := s.Submit(context.Background(), &Request{Global: global, Data: data}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("recovered result differs from reference at %d: %v vs %v", i, data[i], want[i])
		}
	}
	rec := s.Stats().Recovery
	if rec.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1", rec.Retries)
	}
	if rec.FaultEvictions < 1 {
		t.Errorf("FaultEvictions = %d, want >= 1", rec.FaultEvictions)
	}
	if rec.DegradedRequests != 0 {
		t.Errorf("DegradedRequests = %d, want 0 (breaker must not trip)", rec.DegradedRequests)
	}
}

// TestBreakerTripsIntoDegraded: a shape whose engines always die exhausts its
// retries, trips the breaker, and subsequent requests execute on the degraded
// fresh-plan path — correctly, despite every cached engine being poisoned.
func TestBreakerTripsIntoDegraded(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:            ranks,
		MaxRetries:       -1, // no retries: fail fast into the breaker
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute, // stays open for the whole test
		EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
			return killPlan(build % ranks)
		},
	})
	defer s.Close()

	data := randomSignal(global, 5)
	want := append([]complex128(nil), data...)
	runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{want})

	// First request rides the poisoned engine and fails with the typed fault.
	err := s.Submit(context.Background(), &Request{Global: global, Data: append([]complex128(nil), data...)})
	if !errors.Is(err, heffte.ErrRankFailed) {
		t.Fatalf("first Submit = %v, want heffte.ErrRankFailed", err)
	}
	// The breaker is now open: the same request succeeds degraded.
	got := append([]complex128(nil), data...)
	if err := s.Submit(context.Background(), &Request{Global: global, Data: got}); err != nil {
		t.Fatalf("degraded Submit: %v", err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("degraded result differs from reference at %d", i)
		}
	}
	rec := s.Stats().Recovery
	if rec.BreakerTrips < 1 {
		t.Errorf("BreakerTrips = %d, want >= 1", rec.BreakerTrips)
	}
	if rec.DegradedRequests < 1 {
		t.Errorf("DegradedRequests = %d, want >= 1", rec.DegradedRequests)
	}
	found := false
	for _, state := range rec.Breakers {
		if state == "open" {
			found = true
		}
	}
	if !found {
		t.Errorf("no open breaker in %v", rec.Breakers)
	}
}

// lastExchangeOp is the index of rank's last fault-visible operation in one
// batch on a ranks-rank engine of global under comm: the last chunk of the
// output reshape.
func lastExchangeOp(global [3]int, ranks, rank int, comm heffte.CommConfig) int {
	ops := 0
	heffte.NewWorld(heffte.Summit(), ranks, heffte.WorldOptions{GPUAware: true}).Run(func(c *heffte.Comm) {
		plan, err := heffte.NewPlan(c, heffte.Config{Global: global, Opts: heffte.Options{Comm: comm}})
		if err != nil {
			panic(err)
		}
		if c.Rank() == rank {
			for _, ph := range plan.CommPhases() {
				if ph.GroupSize > 0 {
					ops += ph.Chunks
				}
			}
		}
	})
	return ops - 1
}

// TestKillAtOutputReshapeRestoresData: rank 2 dies entering the last chunk of
// the output reshape, when every rank has already written its first chunk of
// the result into the requests' own arrays. Without retries each submitter
// gets the fault back with its Data exactly as submitted; with retries the
// server recomputes from that data on a clean rebuild and the result is the
// clean run's, bit for bit.
func TestKillAtOutputReshapeRestoresData(t *testing.T) {
	const ranks, n = 4, 3
	global := [3]int{16, 16, 16}
	comm := heffte.CommConfig{Chunks: 2, Overlap: heffte.OverlapOff}
	kill := &heffte.FaultPlan{Timeout: 0.5, Events: []heffte.FaultEvent{
		{Kind: heffte.FaultKill, Rank: 2, Op: lastExchangeOp(global, ranks, 2, comm)},
	}}
	inputs := make([][]complex128, n)
	want := make([][]complex128, n)
	for i := range inputs {
		inputs[i] = randomSignal(global, int64(40+i))
		want[i] = append([]complex128(nil), inputs[i]...)
	}
	runReference(t, global, ranks, heffte.DecompAuto, Forward, want)
	for _, retries := range []int{-1, 2} {
		s := New(Config{Ranks: ranks, Comm: comm, MaxRetries: retries, RetryBackoff: 50 * time.Microsecond,
			Window: 50 * time.Millisecond, MaxBatch: n, Workers: 1,
			EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
				if build == 0 {
					return kill
				}
				return nil
			}})
		datas := make([][]complex128, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range datas {
			datas[i] = append([]complex128(nil), inputs[i]...)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.Submit(context.Background(), &Request{Global: global, Data: datas[i]})
			}(i)
		}
		wg.Wait()
		if b := s.Stats().Scheduler.Total.Batches; retries < 0 && b != 1 {
			t.Fatalf("%d batches, want the %d requests in one", b, n)
		}
		s.Close()
		for i := range datas {
			switch {
			case retries < 0 && !errors.Is(errs[i], heffte.ErrRankFailed):
				t.Errorf("no retries, request %d: err = %v, want heffte.ErrRankFailed", i, errs[i])
			case retries < 0 && !equalData(datas[i], inputs[i]):
				t.Errorf("no retries, request %d: the failed batch left Data changed", i)
			case retries > 0 && errs[i] != nil:
				t.Errorf("retries, request %d: %v", i, errs[i])
			case retries > 0 && !equalData(datas[i], want[i]):
				t.Errorf("retries, request %d: the retried result differs from a clean run", i)
			}
		}
	}
}

// TestAliasedBatchRunsSingly: two requests on one array in one batch cannot
// be independent entries — the plan refuses such a batch on every rank before
// anything moves — so the server runs the batch's requests one by one, the
// sequential order: the shared array is transformed twice, the other once.
func TestAliasedBatchRunsSingly(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{Ranks: ranks, Window: 50 * time.Millisecond, MaxBatch: 3, Workers: 1})
	defer s.Close()
	shared, other := randomSignal(global, 8), randomSignal(global, 9)
	want := [][]complex128{append([]complex128(nil), shared...), append([]complex128(nil), other...)}
	runReference(t, global, ranks, heffte.DecompAuto, Forward, want[:1])
	runReference(t, global, ranks, heffte.DecompAuto, Forward, want)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, d := range [][]complex128{shared, other, shared} {
		wg.Add(1)
		go func(i int, d []complex128) {
			defer wg.Done()
			errs[i] = s.Submit(context.Background(), &Request{Global: global, Data: d})
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats().Scheduler.Total
	if st.Batches != 1 {
		t.Fatalf("%d scheduler batches, want the 3 requests coalesced into 1", st.Batches)
	}
	if !equalData(shared, want[0]) || !equalData(other, want[1]) {
		t.Errorf("aliased batch: results differ from running the requests in sequence")
	}
	if got := s.Stats().Engines[0].Batches; got != 3 {
		t.Errorf("engine ran %d batches, want 3 single-request ones", got)
	}
}

// TestFaultClassifiers: the facade re-exports classify engine faults.
func TestFaultClassifiers(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:      ranks,
		MaxRetries: -1,
		EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
			return killPlan(0)
		},
	})
	defer s.Close()
	err := s.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 7)})
	if err == nil {
		t.Fatal("expected a fault")
	}
	if !heffte.IsFault(err) {
		t.Errorf("IsFault(%v) = false, want true", err)
	}
}
