package serve

import (
	"context"
	"errors"
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
