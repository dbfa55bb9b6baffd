package serve

import (
	"context"
	"testing"
	"time"

	"repro/heffte"
)

// TestElasticResumeInPlace: a rank kill mid-batch on an elastic server is
// recovered by shrink+resume — the engine keeps its cache slot on a survivor
// world at a bumped epoch, the interrupted batch finishes from its phase
// checkpoint with the correct spectrum, and the ledgers record a Resumed
// batch plus the lost GPU slot. No eviction, no restart.
func TestElasticResumeInPlace(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:      ranks,
		Elastic:    true,
		MaxRetries: 2,
		EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
			if build == 0 {
				return &heffte.FaultPlan{Timeout: 0.5, Events: []heffte.FaultEvent{
					{Kind: heffte.FaultKill, Rank: 1, Op: 1},
				}}
			}
			return nil
		},
	})
	defer s.Close()

	data := randomSignal(global, 11)
	want := append([]complex128(nil), data...)
	runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{want})

	if err := s.Submit(context.Background(), &Request{Global: global, Data: data}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("resumed result differs from reference at %d: %v vs %v", i, data[i], want[i])
		}
	}

	rec := s.Stats().Recovery
	if rec.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", rec.Resumed)
	}
	if rec.Restarted != 0 {
		t.Errorf("Restarted = %d, want 0", rec.Restarted)
	}
	if rec.FaultEvictions != 0 {
		t.Errorf("FaultEvictions = %d, want 0 (the engine must keep its slot)", rec.FaultEvictions)
	}
	if rec.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (resume-first must preempt the retry path)", rec.Retries)
	}
	if len(rec.LostSlots) != 1 {
		t.Errorf("LostSlots = %v, want exactly one lost slot", rec.LostSlots)
	}

	// A follow-up batch runs on the shrunken backend: survivor count, epoch 1.
	data2 := randomSignal(global, 13)
	want2 := append([]complex128(nil), data2...)
	runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{want2})
	if err := s.Submit(context.Background(), &Request{Global: global, Data: data2}); err != nil {
		t.Fatalf("second Submit: %v", err)
	}
	for i := range data2 {
		if data2[i] != want2[i] {
			t.Fatalf("post-resume result differs from reference at %d", i)
		}
	}
	st := s.Stats()
	if len(st.Engines) != 1 {
		t.Fatalf("engines = %d, want 1 (resume keeps the engine resident)", len(st.Engines))
	}
	es := st.Engines[0]
	if es.Epoch != 1 || es.Ranks != ranks-1 {
		t.Errorf("engine epoch %d ranks %d, want epoch 1 at %d ranks", es.Epoch, es.Ranks, ranks-1)
	}
	if es.Resumed != 1 {
		t.Errorf("engine Resumed = %d, want 1", es.Resumed)
	}
}

// TestElasticOffRestarts: the identical kill without Config.Elastic goes down
// the evict-and-rebuild path and is recorded as Restarted, so the
// resume-vs-restart split in RecoveryStats is trustworthy.
func TestElasticOffRestarts(t *testing.T) {
	const ranks = 4
	global := [3]int{8, 8, 8}
	s := New(Config{
		Ranks:        ranks,
		MaxRetries:   2,
		RetryBackoff: 10 * time.Microsecond,
		EngineFaults: func(shape string, build int, slots []int) *heffte.FaultPlan {
			if build == 0 {
				return &heffte.FaultPlan{Timeout: 0.5, Events: []heffte.FaultEvent{
					{Kind: heffte.FaultKill, Rank: 1, Op: 1},
				}}
			}
			return nil
		},
	})
	defer s.Close()

	data := randomSignal(global, 17)
	want := append([]complex128(nil), data...)
	runReference(t, global, ranks, heffte.DecompAuto, Forward, [][]complex128{want})
	if err := s.Submit(context.Background(), &Request{Global: global, Data: data}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("recovered result differs from reference at %d", i)
		}
	}
	rec := s.Stats().Recovery
	if rec.Resumed != 0 {
		t.Errorf("Resumed = %d, want 0 with elastic off", rec.Resumed)
	}
	if rec.Restarted < 1 {
		t.Errorf("Restarted = %d, want >= 1", rec.Restarted)
	}
	if rec.FaultEvictions < 1 {
		t.Errorf("FaultEvictions = %d, want >= 1", rec.FaultEvictions)
	}
}

// TestBackoffDelayBounded: the capped exponential backoff saturates at the
// cap instead of overflowing time.Duration on deep retry chains (the
// unbounded `base << depth` shift this replaced went negative at depth ~40,
// which time.Sleep treats as zero — no backoff at all).
func TestBackoffDelayBounded(t *testing.T) {
	const base, cap = 10 * time.Millisecond, time.Second
	cases := []struct {
		depth int
		want  time.Duration
	}{
		{0, base},
		{1, 2 * base},
		{3, 8 * base},
		{7, cap},   // 1.28s clamps
		{40, cap},  // would overflow a raw shift of the cap comparison
		{500, cap}, // far past any int64 shift
	}
	for _, c := range cases {
		if got := backoffDelay(base, cap, c.depth); got != c.want {
			t.Errorf("backoffDelay(base, cap, %d) = %v, want %v", c.depth, got, c.want)
		}
	}
	if got := backoffDelay(0, cap, 5); got != 0 {
		t.Errorf("zero base: got %v, want 0", got)
	}
	if got := backoffDelay(base, 0, 80); got <= 0 {
		t.Errorf("uncapped deep depth must stay positive, got %v", got)
	}
}
