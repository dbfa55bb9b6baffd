package mpisim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/machine"
)

// faultWorld builds a 4-rank world with the given plan, runs one collective
// on every rank under Protect, and returns the per-rank errors and the
// world's Result.
func faultWorld(t *testing.T, plan *faults.Plan, coll func(c *Comm, send []Buf) []Buf) ([]error, Result) {
	t.Helper()
	const size = 4
	w := NewWorld(machine.Summit(), size, Options{GPUAware: true, Faults: plan})
	errs := make([]error, size)
	res := w.Run(func(c *Comm) {
		send := make([]Buf, size)
		for d := range send {
			send[d] = hostBuf(complex(float64(c.Rank()), float64(d)))
		}
		errs[c.Rank()] = c.Protect(func() { coll(c, send) })
	})
	return errs, res
}

// TestKillMidAlltoallvUnblocksSurvivors is the no-silent-hang guarantee: a
// rank killed mid-collective fails the world, and every surviving rank —
// blocked in a rendezvous that can never complete — wakes with ErrRankFailed
// instead of deadlocking. No goroutine may outlive Run.
func TestKillMidAlltoallvUnblocksSurvivors(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 2, Op: 0}}}
	errs, res := faultWorld(t, plan, func(c *Comm, send []Buf) []Buf { return alltoallvDense(c, send) })
	for r, err := range errs {
		if !errors.Is(err, ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", r, err)
		}
	}
	if !errors.Is(res.Err, ErrRankFailed) {
		t.Errorf("Result.Err = %v, want ErrRankFailed", res.Err)
	}
	checkNoGoroutineLeak(t, before)
}

// Same for the Alltoallw (Algorithm 2) path, which models its exchange as a
// naive Isend/Irecv loop rather than the optimized collective.
func TestKillMidAlltoallwUnblocksSurvivors(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 1, Op: 0}}}
	errs, res := faultWorld(t, plan, func(c *Comm, send []Buf) []Buf { return alltoallwDense(c, send) })
	for r, err := range errs {
		if !errors.Is(err, ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", r, err)
		}
	}
	if !errors.Is(res.Err, ErrRankFailed) {
		t.Errorf("Result.Err = %v, want ErrRankFailed", res.Err)
	}
	checkNoGoroutineLeak(t, before)
}

func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after world teardown", before, n)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDropTimesOutCollective: a rank whose collective blocks are dropped in
// transit leaves its peers waiting forever; with a timeout bound the wait is
// a bounded ErrExchangeTimeout instead.
func TestDropTimesOutCollective(t *testing.T) {
	plan := &faults.Plan{Timeout: 0.5, Events: []faults.Event{{Kind: faults.Drop, Rank: 0, Op: 0}}}
	errs, res := faultWorld(t, plan, func(c *Comm, send []Buf) []Buf { return alltoallvDense(c, send) })
	if !errors.Is(res.Err, ErrExchangeTimeout) {
		t.Fatalf("Result.Err = %v, want ErrExchangeTimeout", res.Err)
	}
	// The dropping rank's own exchange completes locally; every rank waiting
	// on its lost blocks must observe a bounded fault instead of hanging.
	for r, err := range errs {
		if r == 0 {
			continue
		}
		if err == nil || !IsFault(err) {
			t.Errorf("rank %d: err = %v, want a fault", r, err)
		}
	}
}

// TestCorruptDetectedOnReceipt: a corrupted contribution is detected by its
// receivers (checksum model) and fails the world with ErrMessageCorrupt.
func TestCorruptDetectedOnReceipt(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Corrupt, Rank: 3, Op: 0}}}
	_, res := faultWorld(t, plan, func(c *Comm, send []Buf) []Buf { return alltoallvDense(c, send) })
	if !errors.Is(res.Err, ErrMessageCorrupt) {
		t.Fatalf("Result.Err = %v, want ErrMessageCorrupt", res.Err)
	}
}

// TestStallTripsTimeout: a straggler stalled past the per-exchange bound
// surfaces as ErrExchangeTimeout on the ranks stuck waiting for it.
func TestStallTripsTimeout(t *testing.T) {
	plan := &faults.Plan{Timeout: 0.5, Events: []faults.Event{
		{Kind: faults.Stall, Rank: 0, Op: 0, Delay: 5},
	}}
	_, res := faultWorld(t, plan, func(c *Comm, send []Buf) []Buf { return alltoallvDense(c, send) })
	if !errors.Is(res.Err, ErrExchangeTimeout) {
		t.Fatalf("Result.Err = %v, want ErrExchangeTimeout", res.Err)
	}
}

// TestP2PDropAndCorrupt exercise the point-to-point fault paths.
func TestP2PDrop(t *testing.T) {
	plan := &faults.Plan{Timeout: 0.5, Events: []faults.Event{{Kind: faults.Drop, Rank: 0, Op: 0}}}
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true, Faults: plan})
	errs := make([]error, 2)
	res := w.Run(func(c *Comm) {
		errs[c.Rank()] = c.Protect(func() {
			if c.Rank() == 0 {
				c.Send(1, 0, hostBuf(1))
			} else {
				recv(c, 0, 0)
			}
		})
	})
	if !errors.Is(res.Err, ErrExchangeTimeout) {
		t.Fatalf("Result.Err = %v, want ErrExchangeTimeout", res.Err)
	}
	if !errors.Is(errs[1], ErrExchangeTimeout) {
		t.Errorf("receiver err = %v, want ErrExchangeTimeout", errs[1])
	}
}

func TestP2PCorrupt(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Corrupt, Rank: 0, Op: 0}}}
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true, Faults: plan})
	var recvErr error
	res := w.Run(func(c *Comm) {
		err := c.Protect(func() {
			if c.Rank() == 0 {
				c.Send(1, 0, hostBuf(1))
			} else {
				recv(c, 0, 0)
			}
		})
		if c.Rank() == 1 {
			recvErr = err
		}
	})
	if !errors.Is(res.Err, ErrMessageCorrupt) {
		t.Fatalf("Result.Err = %v, want ErrMessageCorrupt", res.Err)
	}
	if !errors.Is(recvErr, ErrMessageCorrupt) {
		t.Errorf("receiver err = %v, want ErrMessageCorrupt", recvErr)
	}
}

// TestDegradeDeterministicClocks: non-failing faults (degraded links) change
// virtual time but keep it reproducible — two runs of the same plan produce
// identical clocks, the property chaos replay depends on.
func TestDegradeDeterministicClocks(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{Kind: faults.Degrade, Rank: 1, Op: 0, Factor: 3, Count: 4},
		{Kind: faults.Jitter, Rank: 2, Op: 0, Delay: 0.001, Count: 2},
	}}
	run := func() Result {
		_, res := faultWorld(t, plan, func(c *Comm, send []Buf) []Buf { return alltoallvDense(c, send) })
		return res
	}
	a, b := run(), run()
	if a.Err != nil || b.Err != nil {
		t.Fatalf("degrade/jitter must not fail the world: %v %v", a.Err, b.Err)
	}
	for r := range a.Clocks {
		if a.Clocks[r] != b.Clocks[r] {
			t.Errorf("rank %d clock differs across runs: %g vs %g", r, a.Clocks[r], b.Clocks[r])
		}
	}
	// And the degraded run is actually slower than a clean one.
	_, clean := faultWorld(t, nil, func(c *Comm, send []Buf) []Buf { return alltoallvDense(c, send) })
	if a.MaxClock <= clean.MaxClock {
		t.Errorf("degraded makespan %g not above clean %g", a.MaxClock, clean.MaxClock)
	}
}

// TestWorldStaysFailedAfterFault: operations attempted after the world
// aborted fail immediately with the recorded fault instead of hanging —
// the property the serving layer's sticky-fault engine eviction relies on.
func TestWorldStaysFailedAfterFault(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 0, Op: 0}}}
	w := NewWorld(machine.Summit(), 2, Options{GPUAware: true, Faults: plan})
	var second error
	w.Run(func(c *Comm) {
		send := []Buf{hostBuf(1), hostBuf(2)}
		c.Protect(func() { alltoallvDense(c, send) })
		if c.Rank() == 1 {
			second = c.Protect(func() { alltoallvDense(c, send) })
		}
	})
	if !errors.Is(second, ErrRankFailed) {
		t.Errorf("post-fault collective err = %v, want ErrRankFailed", second)
	}
	if !errors.Is(w.FaultError(), ErrRankFailed) {
		t.Errorf("FaultError = %v, want ErrRankFailed", w.FaultError())
	}
}
