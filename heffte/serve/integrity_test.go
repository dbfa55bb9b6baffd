package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/heffte"
)

// sdcOnSlot returns an EngineFaults hook that silently corrupts every send
// of whichever rank occupies the given GPU slot (count consecutive corrupt
// transmissions per block). Engines placed away from the slot run clean —
// the observable effect of quarantine.
func sdcOnSlot(slot, count int) func(string, int, []int) *heffte.FaultPlan {
	return func(shape string, build int, slots []int) *heffte.FaultPlan {
		for r, sl := range slots {
			if sl == slot {
				fp := &heffte.FaultPlan{Timeout: 1}
				for op := 0; op < 64; op++ {
					fp.Events = append(fp.Events, heffte.FaultEvent{
						Kind: heffte.FaultCorruptSilent, Rank: r, Op: op, Count: count,
					})
				}
				return fp
			}
		}
		return nil
	}
}

// TestServeSDCQuarantine is the end-to-end silent-data-corruption story: a
// "bad GPU" on slot 1 flips bits in everything its rank sends; the
// checksummed transport repairs every block (requests keep succeeding with
// correct results), the repairs accumulate suspicion on the slot, the health
// ledger quarantines it, and rebuilt engines placed around the slot run
// clean — retransmits stop.
func TestServeSDCQuarantine(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:        ranks,
		Window:       -1, // no coalescing: each submit is its own batch
		Integrity:    heffte.IntegrityConfig{Checksums: true, Invariants: true},
		EngineFaults: sdcOnSlot(1, 1),
	})
	defer s.Close()

	want := randomSignal(global, 11)
	ref := append([]complex128(nil), want...)
	runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{ref})

	for i := 0; i < 3; i++ {
		data := append([]complex128(nil), want...)
		if err := s.Submit(context.Background(), &Request{Global: global, Data: data}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		for j := range data {
			if data[j] != ref[j] {
				t.Fatalf("submit %d: result differs from reference at %d: %v vs %v", i, j, data[j], ref[j])
			}
		}
	}

	st := s.Stats()
	in := st.Integrity
	if in.Totals.ChecksumMismatches == 0 || in.Totals.Retransmits == 0 {
		t.Fatalf("transport never repaired a block: %+v", in.Totals)
	}
	if in.Quarantines < 1 {
		t.Fatalf("slot was never quarantined: %+v", in)
	}
	quarantined := false
	for _, sl := range in.QuarantinedSlots {
		if sl == 1 {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("QuarantinedSlots = %v, want slot 1", in.QuarantinedSlots)
	}
	if in.QuarantineRebuilds < 1 {
		t.Errorf("QuarantineRebuilds = %d, want >= 1", in.QuarantineRebuilds)
	}
	if in.Suspicion[1] < quarantineThreshold {
		t.Errorf("suspicion on slot 1 = %d, want >= threshold %d", in.Suspicion[1], quarantineThreshold)
	}

	// The last engine was rebuilt around the quarantined slot: a fresh
	// request must not add a single retransmit.
	before := s.Stats().Integrity.Totals.Retransmits
	data := append([]complex128(nil), want...)
	if err := s.Submit(context.Background(), &Request{Global: global, Data: data}); err != nil {
		t.Fatalf("post-quarantine Submit: %v", err)
	}
	if after := s.Stats().Integrity.Totals.Retransmits; after != before {
		t.Errorf("post-quarantine request still retransmitting: %d → %d", before, after)
	}

	var sb strings.Builder
	st = s.Stats()
	st.WriteText(&sb)
	if !strings.Contains(sb.String(), "integrity:") || !strings.Contains(sb.String(), "quarantined slots") {
		t.Errorf("WriteText missing integrity section:\n%s", sb.String())
	}
}

// TestServeSDCUnrepairable: corruption outlasting the retransmit budget
// surfaces as the typed ErrRetransmitExhausted through the serving layer
// (after retries exhaust) — never as silently wrong data.
func TestServeSDCUnrepairable(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:        ranks,
		Window:       -1,
		MaxRetries:   -1,
		Integrity:    heffte.IntegrityConfig{Checksums: true},
		EngineFaults: sdcOnSlot(1, 3),
	})
	defer s.Close()
	err := s.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 13)})
	if !errors.Is(err, heffte.ErrRetransmitExhausted) {
		t.Fatalf("Submit = %v, want heffte.ErrRetransmitExhausted", err)
	}
}

// TestBreakerHalfOpenReopens is the half-open regression test: a breaker
// whose cooldown expired lets one probe batch through; when the probe fails,
// the breaker must re-open immediately with a fresh cooldown (not fall back
// to counting a full threshold of failures), and the next request must route
// degraded without touching the poisoned engine path.
func TestBreakerHalfOpenReopens(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	cooldown := 30 * time.Millisecond
	s := New(Config{
		Ranks:            ranks,
		Window:           -1,
		MaxRetries:       -1,
		BreakerThreshold: 2,
		BreakerCooldown:  cooldown,
		EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
			return killPlan(build % ranks)
		},
	})
	defer s.Close()

	submit := func() error {
		return s.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 17)})
	}
	// Two consecutive fault-failed batches trip the breaker open.
	for i := 0; i < 2; i++ {
		if err := submit(); !errors.Is(err, heffte.ErrRankFailed) {
			t.Fatalf("submit %d = %v, want heffte.ErrRankFailed", i, err)
		}
	}
	if trips := s.Stats().Recovery.BreakerTrips; trips != 1 {
		t.Fatalf("BreakerTrips = %d after threshold failures, want 1", trips)
	}

	// Cooldown expires → the next batch probes the (still poisoned) engine
	// path half-open and fails.
	time.Sleep(cooldown + 20*time.Millisecond)
	if err := submit(); !errors.Is(err, heffte.ErrRankFailed) {
		t.Fatalf("probe submit = %v, want heffte.ErrRankFailed", err)
	}
	rec := s.Stats().Recovery
	if rec.BreakerTrips != 2 {
		t.Fatalf("BreakerTrips = %d after failed half-open probe, want 2 (single failure must re-open)", rec.BreakerTrips)
	}
	open := false
	for _, state := range rec.Breakers {
		if state == "open" {
			open = true
		}
	}
	if !open {
		t.Fatalf("breaker not open after failed probe: %v", rec.Breakers)
	}

	// Fresh cooldown: an immediate request routes degraded and succeeds.
	if err := submit(); err != nil {
		t.Fatalf("degraded submit after re-open: %v", err)
	}
	if deg := s.Stats().Recovery.DegradedRequests; deg < 1 {
		t.Errorf("DegradedRequests = %d, want >= 1", deg)
	}
}

// TestServerCloseNoGoroutineLeak: a server that built engines (healthy and
// poisoned), tripped breakers and ran degraded requests must wind down every
// rank goroutine and worker on Close.
func TestServerCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:        ranks,
		Window:       -1,
		MaxRetries:   1,
		Integrity:    heffte.IntegrityConfig{Checksums: true, Invariants: true},
		EngineFaults: sdcOnSlot(1, 1),
	})
	for i := 0; i < 2; i++ {
		if err := s.Submit(context.Background(), &Request{Global: global, Data: randomSignal(global, 19)}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
