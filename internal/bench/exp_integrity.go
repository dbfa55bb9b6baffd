package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
)

func init() {
	register(Experiment{
		ID: "integrity",
		Title: "Integrity defenses: virtual-time overhead of checksummed transport and ABFT " +
			"invariants on Forward, and the price of each recovery path",
		Run: runIntegrityExp,
	})
}

// sdcWirePlan corrupts rank 1's first sends once each: every flip is caught
// by the checksummed envelope and healed by a single retransmit.
func sdcWirePlan(ops int) *faults.Plan {
	p := &faults.Plan{Timeout: 1}
	for op := 0; op < ops; op++ {
		p.Events = append(p.Events, faults.Event{Kind: faults.CorruptSilent, Rank: 1, Op: op, Count: 1})
	}
	return p
}

// runIntegrityExp returns two tables: the steady-state overhead of each
// integrity layer on a clean Forward (the acceptance gate, TestIntegrityShape:
// every layer within 3% on every grid), and the virtual-time price of the
// recovery paths when corruption actually strikes.
func runIntegrityExp() (Result, error) {
	ranks := 64
	grids := [][3]int{{32, 32, 32}, {128, 128, 128}, {256, 256, 256}}
	recoveryGrid := [3]int{128, 128, 128}

	// forward runs one Forward on Summit under an integrity configuration and
	// returns the virtual runtime plus the world's integrity counters.
	forward := func(grid [3]int, ic mpisim.IntegrityConfig, fp *faults.Plan, seed int64) (float64, mpisim.IntegritySnapshot, error) {
		world := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true, Integrity: ic, Faults: fp})
		t, err := forwardOnce(world, core.Config{Global: grid}, seed)
		return t, world.IntegrityCounters().Snapshot(), err
	}
	// Overhead rows use phantom payloads; recovery rows need real ones so
	// injected bit flips actually land and the defenses actually fire.
	const realSeed = 101

	configs := []struct {
		name string
		ic   mpisim.IntegrityConfig
	}{
		{"off", mpisim.IntegrityConfig{}},
		{"checksums", mpisim.IntegrityConfig{Checksums: true}},
		{"invariants", mpisim.IntegrityConfig{Invariants: true}},
		{"full", mpisim.IntegrityConfig{Checksums: true, Invariants: true}},
	}

	overhead := Section{
		Lead:   []string{fmt.Sprintf("Clean-run overhead (Summit, %d ranks, GPU-aware, phantom payloads):", ranks)},
		Header: []string{"grid", "config", "forward", "overhead"},
	}
	for _, g := range grids {
		base := 0.0
		for _, c := range configs {
			t, _, err := forward(g, c.ic, nil, phantom)
			if err != nil {
				return Result{}, err
			}
			vs := label("—")
			if c.name == "off" {
				base = t
			} else {
				vs = signedPct(t/base - 1)
			}
			overhead.Rows = append(overhead.Rows, []Cell{label(fmt.Sprintf("%d³", g[0])), label(c.name), micros(t), vs})
		}
	}

	full := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
	clean, _, err := forward(recoveryGrid, full, nil, realSeed)
	if err != nil {
		return Result{}, err
	}
	wire, wireStats, err := forward(recoveryGrid, full, sdcWirePlan(8), realSeed)
	if err != nil {
		return Result{}, err
	}
	brickPlan := &faults.Plan{Timeout: 1, Events: []faults.Event{
		{Kind: faults.CorruptSilent, Brick: true, Rank: 1, Op: 0, Count: 1},
	}}
	brick, brickStats, err := forward(recoveryGrid, full, brickPlan, realSeed)
	if err != nil {
		return Result{}, err
	}

	recovery := Section{
		Lead:   []string{"", fmt.Sprintf("Recovery price (%d³, full defenses, real payloads):", recoveryGrid[0])},
		Header: []string{"scenario", "forward", "vs clean", "recoveries"},
		Rows: [][]Cell{
			{label("clean"), micros(clean), label("—"), label("—")},
			{label(fmt.Sprintf("wire flips ×%d", wireStats.Retransmits)), micros(wire), signedPct(wire/clean - 1),
				num(float64(wireStats.Retransmits), "%.0f retransmits")},
			{label("brick flip ×1"), micros(brick), signedPct(brick/clean - 1),
				num(float64(brickStats.PhaseReexecs), "%.0f phase re-execs")},
		},
		Notes: []string{
			"",
			"A recovery touching one rank can cost less than its local price: per-rank",
			"completion of the exchange schedules is skewed by tens of µs, so a single",
			"phase re-execution (or a handful of block retransmits off the critical",
			"path) often hides entirely in slack another rank sets anyway.",
		},
	}
	return Result{Sections: []Section{overhead, recovery}}, nil
}
