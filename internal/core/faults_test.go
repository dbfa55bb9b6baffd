package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

// runFaulty executes one Forward on a 4-rank world with the given fault plan
// and returns the per-rank errors plus the world result.
func runFaulty(t *testing.T, plan *faults.Plan, opts Options) ([]error, mpisim.Result) {
	t.Helper()
	const size = 4
	global := [3]int{8, 8, 8}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: plan})
	errs := make([]error, size)
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global, Opts: opts})
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		errs[c.Rank()] = p.Forward(NewField(p.InBox()))
	})
	return errs, res
}

// TestStallTimesOutEveryBackend is the no-hang acceptance bar: a rank stalled
// past the exchange timeout must surface ErrExchangeTimeout — as an error
// returned by Forward, not a deadlock — under every exchange strategy of
// Table I.
func TestStallTimesOutEveryBackend(t *testing.T) {
	backends := []Backend{BackendAlltoall, BackendAlltoallv, BackendAlltoallw, BackendP2P, BackendP2PBlocking}
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			plan := &faults.Plan{Timeout: 0.5, Events: []faults.Event{
				{Kind: faults.Stall, Rank: 1, Op: 0, Delay: 5},
			}}
			errs, res := runFaulty(t, plan, Options{Decomp: DecompPencils, Backend: b})
			if !errors.Is(res.Err, mpisim.ErrExchangeTimeout) {
				t.Fatalf("Result.Err = %v, want ErrExchangeTimeout", res.Err)
			}
			found := false
			for _, err := range errs {
				if errors.Is(err, mpisim.ErrExchangeTimeout) {
					found = true
				}
			}
			if !found {
				t.Errorf("no rank returned ErrExchangeTimeout: %v", errs)
			}
		})
	}
}

// TestFaultErrorCarriesPhaseContext: errors escaping Forward identify the
// failing rank and pipeline phase, so operators can tell a reshape exchange
// failure from an FFT-stage one.
func TestFaultErrorCarriesPhaseContext(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 2, Op: 0}}}
	errs, res := runFaulty(t, plan, Options{Decomp: DecompPencils})
	if !errors.Is(res.Err, mpisim.ErrRankFailed) {
		t.Fatalf("Result.Err = %v, want ErrRankFailed", res.Err)
	}
	for r, err := range errs {
		if !errors.Is(err, mpisim.ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", r, err)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, "core: rank") || !strings.Contains(msg, "phase") {
			t.Errorf("rank %d error lacks phase context: %q", r, msg)
		}
	}
}

// TestCleanPlanUnaffectedByTimeoutBound: an exchange timeout on a healthy
// world (a fault plan with a bound and no events) is purely an upper bound —
// it must not alter virtual timings or produce spurious errors.
func TestCleanPlanUnaffectedByTimeoutBound(t *testing.T) {
	run := func(timeout float64) mpisim.Result {
		const size = 4
		global := [3]int{8, 8, 8}
		w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: &faults.Plan{Timeout: timeout}})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global})
			if err != nil {
				panic(err)
			}
			if err := p.Forward(NewField(p.InBox())); err != nil {
				panic(err)
			}
		})
		return res
	}
	bounded, free := run(10), run(0)
	if bounded.Err != nil || free.Err != nil {
		t.Fatalf("clean runs errored: %v %v", bounded.Err, free.Err)
	}
	if bounded.MaxClock != free.MaxClock {
		t.Errorf("timeout bound changed makespan: %g vs %g", bounded.MaxClock, free.MaxClock)
	}
}

// TestBatchFaultFailsWholeBatch: a fault inside a fused batch fails the call
// once with a typed error (the serving layer splits and retries above this
// layer).
func TestBatchFaultFailsWholeBatch(t *testing.T) {
	plan := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 0, Op: 1}}}
	const size = 4
	global := [3]int{8, 8, 8}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: plan})
	errs := make([]error, size)
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global})
		if err != nil {
			errs[c.Rank()] = err
			return
		}
		fs := []*Field{NewField(p.InBox()), NewField(p.InBox()), NewField(p.InBox())}
		errs[c.Rank()] = p.ForwardBatch(fs)
	})
	if !errors.Is(res.Err, mpisim.ErrRankFailed) {
		t.Fatalf("Result.Err = %v, want ErrRankFailed", res.Err)
	}
	for r, err := range errs {
		if !errors.Is(err, mpisim.ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", r, err)
		}
	}
}
