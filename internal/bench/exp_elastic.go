package bench

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func init() {
	register(Experiment{
		ID: "elastic",
		Title: "Elastic shrink-to-survivors recovery: resume-vs-restart latency across " +
			"kill phase (early/middle/late) and rank count",
		Run: runElasticExp,
	})
}

// elasticKilledRun executes one checkpointed ForwardBatch into an injected
// kill and returns the failed world. Ranks not entangled with the victim may
// finish cleanly on a late kill; any non-ErrRankFailed error is a bug.
func elasticKilledRun(size int, n [3]int, store *core.CheckpointStore, fp *faults.Plan) (*mpisim.World, error) {
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: fp})
	boxes := core.DefaultBricks(size, n)
	var mu sync.Mutex
	var bad error
	res := w.Run(func(c *mpisim.Comm) {
		p, err := core.NewPlan(c, core.Config{Global: n, Opts: core.Options{
			Decomp: core.DecompPencils, Checkpoints: store,
		}})
		if err != nil {
			mu.Lock()
			bad = err
			mu.Unlock()
			return
		}
		f := core.NewField(boxes[c.Rank()])
		f.FillRandom(int64(271 + c.Rank()))
		if err := p.Forward(f); err != nil && !errors.Is(err, mpisim.ErrRankFailed) {
			mu.Lock()
			bad = err
			mu.Unlock()
		}
	})
	if bad != nil {
		return nil, bad
	}
	if !errors.Is(res.Err, mpisim.ErrRankFailed) {
		return nil, fmt.Errorf("kill did not land: %v", res.Err)
	}
	return w, nil
}

// elasticResumeRun shrinks the failed world, finishes the batch via
// ResumeBatch on the survivors, and returns the recovery latency: virtual
// time from the kill to the resumed batch's completion.
func elasticResumeRun(w *mpisim.World, n [3]int, store *core.CheckpointStore) (float64, error) {
	nw, err := w.Shrink()
	if err != nil {
		return 0, err
	}
	var mu sync.Mutex
	var bad error
	res := nw.Run(func(c *mpisim.Comm) {
		p, perr := core.NewPlan(c, core.Config{Global: n, Opts: core.Options{
			Decomp: store.Decomp(), Checkpoints: store,
		}})
		if perr == nil {
			_, perr = p.ResumeBatch()
		}
		if perr != nil {
			mu.Lock()
			bad = perr
			mu.Unlock()
		}
	})
	if bad != nil {
		return 0, bad
	}
	if res.Err != nil {
		return 0, res.Err
	}
	return res.MaxClock - w.KillClock(), nil
}

// elasticExchanges returns the exchange count of a clean pencil plan, so kill
// ops can be placed relative to the pipeline's actual length (small rank
// counts skip no-op reshapes, shifting the output reshape's op index).
func elasticExchanges(size int, n [3]int) (int, error) {
	var ex int
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := core.NewPlan(c, core.Config{Global: n, Opts: core.Options{Decomp: core.DecompPencils}})
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			ex = p.Exchanges()
		}
	})
	return ex, res.Err
}

// elasticRecovery measures one (grid, ranks, kill op) point twice — resume
// from the deepest shared checkpoint, and restart via the same machinery with
// the store truncated to the input boundary — and returns both latencies.
func elasticRecovery(size int, n [3]int, killRank, killOp int) (resume, restart float64, err error) {
	fp := func() *faults.Plan {
		return &faults.Plan{Timeout: 1, Events: []faults.Event{
			{Kind: faults.Kill, Rank: killRank, Op: killOp},
		}}
	}
	store := core.NewCheckpointStore()
	w, err := elasticKilledRun(size, n, store, fp())
	if err != nil {
		return 0, 0, err
	}
	if resume, err = elasticResumeRun(w, n, store); err != nil {
		return 0, 0, err
	}
	rstore := core.NewCheckpointStore()
	rw, err := elasticKilledRun(size, n, rstore, fp())
	if err != nil {
		return 0, 0, err
	}
	rstore.TruncateToInput()
	if restart, err = elasticResumeRun(rw, n, rstore); err != nil {
		return 0, 0, err
	}
	return resume, restart, nil
}

// runElasticExp returns the resume-vs-restart recovery-latency tables: the
// kill-phase sweep (how much of the pipeline the checkpoints let the resume
// skip) and the rank-count sweep at a late kill. Both recoveries pay the same
// survivor agreement and the same checkpoint redistribution, so the ratio
// isolates the phases resume does not re-execute.
func runElasticExp() (Result, error) {
	grid := [3]int{32, 32, 32}
	ranks := 8
	rankSweep := []int{4, 8, 16}
	recoveryRow := func(name string, resume, restart float64) []Cell {
		return []Cell{label(name), micros(resume), micros(restart), num(restart/resume, "%.2fx")}
	}

	ex, err := elasticExchanges(ranks, grid)
	if err != nil {
		return Result{}, err
	}
	// Pencil exchanges at this count are ops 0..ex-1; the last is the global
	// output reshape. Op 0 kills before anything completed (the early
	// anchor), a mid-pipeline op kills inside the interleaved subgroup
	// exchanges, the last op after every compute phase.
	phaseSweep := Section{
		Lead: []string{
			fmt.Sprintf("Kill-phase sweep (Summit, %d³ on %d ranks as pencils, real payloads,", grid[0], ranks),
			"virtual recovery latency from the kill to batch completion):",
		},
		Header: []string{"kill phase", "resume", "restart", "restart/resume"},
	}
	phases := []struct {
		name string
		op   int
	}{
		{"early (op 0, input reshape)", 0},
		{fmt.Sprintf("middle (op %d)", ex-2), ex - 2},
		{fmt.Sprintf("late (op %d, output reshape)", ex-1), ex - 1},
	}
	for _, ph := range phases {
		resume, restart, err := elasticRecovery(ranks, grid, ranks/2, ph.op)
		if err != nil {
			return Result{}, fmt.Errorf("kill phase %q: %w", ph.name, err)
		}
		phaseSweep.Rows = append(phaseSweep.Rows, recoveryRow(ph.name, resume, restart))
	}

	rankRows := Section{
		Lead:   []string{"", fmt.Sprintf("Rank-count sweep (late kill on the output reshape, %d³):", grid[0])},
		Header: []string{"ranks", "resume", "restart", "restart/resume"},
	}
	for _, r := range rankSweep {
		rex, err := elasticExchanges(r, grid)
		if err != nil {
			return Result{}, err
		}
		resume, restart, err := elasticRecovery(r, grid, r/2, rex-1)
		if err != nil {
			return Result{}, fmt.Errorf("%d ranks: %w", r, err)
		}
		rankRows.Rows = append(rankRows.Rows, recoveryRow(fmt.Sprint(r), resume, restart))
	}
	rankRows.Notes = []string{
		"",
		"Both recoveries shrink to the survivors, pay the same agreement cost, and",
		"redistribute one checkpointed boundary through the same device-resident",
		"all-to-all; the restart redistributes the input and re-executes everything,",
		"the resume starts at the deepest boundary every rank completed. A kill",
		"inside the interleaved pencil subgroup exchanges cascades aborts back to",
		"the last global synchronization point, so early and middle kills resume",
		"from the same cut; the late kill (a global exchange every rank has entered)",
		"retains the full pipeline and shows the largest gap.",
	}
	return Result{Sections: []Section{phaseSweep, rankRows}}, nil
}
