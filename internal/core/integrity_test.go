package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// runIntegrity executes one forward transform on `size` ranks under the given
// integrity config and fault plan, returning the gathered result (nil if the
// world faulted), the world's fault error, the integrity snapshot, and the
// virtual makespan.
func runIntegrity(t *testing.T, size int, global [3]int, ic mpisim.IntegrityConfig, fp *faults.Plan, tr *trace.Tracer) ([]complex128, error, mpisim.IntegritySnapshot, float64) {
	t.Helper()
	ref := globalSignal(global, 7)
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{
		GPUAware: true, Integrity: ic, Faults: fp, Tracer: tr,
	})
	outDatas := make([][]complex128, size)
	outBoxes := make([]tensor.Box3, size)
	var mu sync.Mutex
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
		if err := p.Forward(f); err != nil {
			return // the world records the fault; surfaced via res.Err
		}
		mu.Lock()
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
		mu.Unlock()
	})
	snap := w.IntegrityCounters().Snapshot()
	if res.Err != nil {
		return nil, res.Err, snap, res.MaxClock
	}
	for r := 0; r < size; r++ {
		if outDatas[r] == nil {
			t.Fatalf("rank %d produced no output and no error", r)
		}
	}
	return gather(global, outBoxes, outDatas), nil, snap, res.MaxClock
}

// wirePlan returns a fault plan silently corrupting rank 1's sends on every
// exchange op of the horizon, with the given consecutive-transmission count.
func wirePlan(count int) *faults.Plan {
	p := &faults.Plan{Timeout: 1}
	for op := 0; op < 64; op++ {
		p.Events = append(p.Events, faults.Event{
			Kind: faults.CorruptSilent, Rank: 1, Op: op, Count: count,
		})
	}
	return p
}

// TestIntegrityCleanOverheadAndBitIdentity pins three properties of a clean
// (fault-free) run with full integrity on: the numerics are bit-identical to
// an unprotected run, the virtual time is strictly larger (checksum, retain
// and verification passes are priced), and the trace carries the new kernel
// classes with byte counts matching the moved payload.
func TestIntegrityCleanOverheadAndBitIdentity(t *testing.T) {
	global := [3]int{32, 32, 32}
	base, err, _, _ := runIntegrity(t, 4, global, mpisim.IntegrityConfig{}, nil, nil)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}

	tr := trace.New()
	full := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
	prot, err, snap, _ := runIntegrity(t, 4, global, full, nil, tr)
	if err != nil {
		t.Fatalf("integrity run failed: %v", err)
	}
	for i := range base {
		if base[i] != prot[i] {
			t.Fatalf("element %d differs with integrity on: %v vs %v", i, prot[i], base[i])
		}
	}
	if snap.InvariantChecks == 0 {
		t.Errorf("no invariant checks ran")
	}
	if snap.InvariantFailures != 0 || snap.ChecksumMismatches != 0 || snap.Retransmits != 0 || snap.PhaseReexecs != 0 {
		t.Errorf("clean run triggered recovery: %+v", snap)
	}
	if snap.ChecksumChecks == 0 {
		t.Errorf("no envelope verifications ran")
	}
	var checksum, verify, retain int
	for _, e := range tr.Events() {
		switch e.Name {
		case "checksum":
			checksum += e.Bytes
		case "checksum_verify":
			verify += e.Bytes
		case "retain":
			retain += e.Bytes
		}
	}
	if checksum == 0 || verify == 0 || retain == 0 {
		t.Fatalf("missing integrity kernels in trace: checksum=%d verify=%d retain=%d", checksum, verify, retain)
	}
	// Retain passes snapshot each rank's brick before every FFT stage: an
	// exact multiple of the grid's byte volume (2 stages for slabs, 3 for
	// pencils), never less than two full passes.
	gridBytes := 16 * global[0] * global[1] * global[2]
	if retain%gridBytes != 0 || retain < 2*gridBytes {
		t.Errorf("retain bytes = %d, want a multiple (≥2) of grid bytes %d", retain, gridBytes)
	}
}

// TestIntegrityOverheadScalesWithBytes pins that the priced checksum work
// grows with the payload: doubling the grid volume must increase the bytes
// attributed to checksum passes.
func TestIntegrityOverheadScalesWithBytes(t *testing.T) {
	bytesFor := func(global [3]int) int {
		tr := trace.New()
		_, err, _, _ := runIntegrity(t, 4, global, mpisim.IntegrityConfig{Checksums: true, Invariants: true}, nil, tr)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		total := 0
		for _, e := range tr.Events() {
			if e.Name == "checksum" || e.Name == "checksum_verify" || e.Name == "retain" {
				total += e.Bytes
			}
		}
		return total
	}
	small := bytesFor([3]int{16, 16, 16})
	large := bytesFor([3]int{32, 16, 16})
	if large < 2*small-16*16*16 {
		t.Errorf("checksum bytes did not scale with volume: %d → %d", small, large)
	}
}

// TestWireCorruptionRepairedByRetransmit: with checksummed transport on,
// silently corrupted wire blocks are caught at the envelope, repaired within
// the retransmit budget, and the delivered numerics stay bit-identical to a
// fault-free run. The sender accumulates suspicion.
func TestWireCorruptionRepairedByRetransmit(t *testing.T) {
	global := [3]int{32, 32, 32}
	base, err, _, _ := runIntegrity(t, 4, global, mpisim.IntegrityConfig{}, nil, nil)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}

	ref := globalSignal(global, 7)
	ic := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{
		GPUAware: true, Integrity: ic, Faults: wirePlan(2),
	})
	outDatas := make([][]complex128, 4)
	outBoxes := make([]tensor.Box3, 4)
	var mu sync.Mutex
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
		if err := p.Forward(f); err != nil {
			t.Errorf("Forward under repairable corruption: %v", err)
			return
		}
		mu.Lock()
		outDatas[c.Rank()] = f.Data
		outBoxes[c.Rank()] = f.Box
		mu.Unlock()
	})
	snap := w.IntegrityCounters().Snapshot()
	if snap.ChecksumMismatches == 0 || snap.Retransmits == 0 {
		t.Fatalf("corruption was not repaired through retransmits: %+v", snap)
	}
	sus := w.SuspicionScores()
	if sus[1] == 0 {
		t.Errorf("sender rank 1 accumulated no suspicion: %v", sus)
	}
	got := gather(global, outBoxes, outDatas)
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("element %d differs after recovery: %v vs %v", i, got[i], base[i])
		}
	}
}

// TestWireCorruptionExhaustsRetransmitBudget: corruption outlasting the
// per-block budget surfaces as ErrRetransmitExhausted, not silent data.
func TestWireCorruptionExhaustsRetransmitBudget(t *testing.T) {
	ic := mpisim.IntegrityConfig{Checksums: true}
	_, err, _, _ := runIntegrity(t, 4, [3]int{32, 32, 32}, ic, wirePlan(3), nil)
	if err == nil {
		t.Fatalf("unrepairable corruption did not fail the transform")
	}
	if !errors.Is(err, mpisim.ErrRetransmitExhausted) {
		t.Fatalf("error = %v, want ErrRetransmitExhausted", err)
	}
}

// TestWireCorruptionCaughtByEnvelope: with the checksummed transport off but
// ABFT invariants on, a wire flip really lands in the delivered payload and
// the reshape envelope sum catches it as ErrIntegrity.
func TestWireCorruptionCaughtByEnvelope(t *testing.T) {
	ic := mpisim.IntegrityConfig{Invariants: true}
	_, err, snap, _ := runIntegrity(t, 4, [3]int{32, 32, 32}, ic, wirePlan(1), nil)
	if err == nil {
		t.Fatalf("landed corruption did not fail the transform")
	}
	if !errors.Is(err, mpisim.ErrIntegrity) {
		t.Fatalf("error = %v, want ErrIntegrity", err)
	}
	if snap.InvariantFailures == 0 {
		t.Errorf("no invariant failure recorded: %+v", snap)
	}
}

// TestWireCorruptionSilentWithoutIntegrity proves the threat model is real:
// with the integrity layer fully disabled, the same injected flips deliver a
// wrong transform with no error at all.
func TestWireCorruptionSilentWithoutIntegrity(t *testing.T) {
	global := [3]int{32, 32, 32}
	base, err, _, _ := runIntegrity(t, 4, global, mpisim.IntegrityConfig{}, nil, nil)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	got, err, _, _ := runIntegrity(t, 4, global, mpisim.IntegrityConfig{}, wirePlan(1), nil)
	if err != nil {
		t.Fatalf("silent corruption raised an error with integrity off: %v", err)
	}
	same := true
	for i := range base {
		if base[i] != got[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("injected silent corruption did not change the result")
	}
}

// TestBrickCorruptionHealedByReexec: a device-memory flip between phases
// fails the DFT-linearity invariant and is healed by one phase-scoped
// re-execution from the retained input — numerics bit-identical to clean.
func TestBrickCorruptionHealedByReexec(t *testing.T) {
	global := [3]int{32, 32, 32}
	base, err, _, _ := runIntegrity(t, 4, global, mpisim.IntegrityConfig{}, nil, nil)
	if err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	fp := &faults.Plan{Timeout: 1, Events: []faults.Event{
		{Kind: faults.CorruptSilent, Brick: true, Rank: 2, Op: 0, Count: 1},
	}}
	ic := mpisim.IntegrityConfig{Invariants: true}
	got, err, snap, _ := runIntegrity(t, 4, global, ic, fp, nil)
	if err != nil {
		t.Fatalf("recoverable brick corruption failed the transform: %v", err)
	}
	if snap.InvariantFailures == 0 || snap.PhaseReexecs == 0 {
		t.Fatalf("no phase re-execution happened: %+v", snap)
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("element %d differs after phase re-execution: %v vs %v", i, got[i], base[i])
		}
	}
}

// TestBrickCorruptionExhaustsReexecs: corruption striking every execution
// attempt defeats phase-scoped recovery and surfaces as ErrIntegrity.
func TestBrickCorruptionExhaustsReexecs(t *testing.T) {
	fp := &faults.Plan{Timeout: 1, Events: []faults.Event{
		{Kind: faults.CorruptSilent, Brick: true, Rank: 2, Op: 0, Count: 3},
	}}
	ic := mpisim.IntegrityConfig{Invariants: true}
	_, err, snap, _ := runIntegrity(t, 4, [3]int{32, 32, 32}, ic, fp, nil)
	if err == nil {
		t.Fatalf("persistent brick corruption did not fail the transform")
	}
	if !errors.Is(err, mpisim.ErrIntegrity) {
		t.Fatalf("error = %v, want ErrIntegrity", err)
	}
	if snap.PhaseReexecs < 2 {
		t.Errorf("expected 2 re-executions before giving up, got %+v", snap)
	}
}

// TestIntegrityInverseInvariant pins the inverse-direction invariant (the
// 1/n scaling is fused into the kernels, collapsing the linearity factor):
// a clean inverse run under full integrity must pass all checks.
func TestIntegrityInverseInvariant(t *testing.T) {
	global := [3]int{32, 32, 32}
	ref := globalSignal(global, 7)
	ic := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
	w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Integrity: ic})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: global})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
		if err := p.Forward(f); err != nil {
			t.Errorf("Forward: %v", err)
			return
		}
		if err := p.Inverse(f); err != nil {
			t.Errorf("Inverse: %v", err)
			return
		}
	})
	snap := w.IntegrityCounters().Snapshot()
	if snap.InvariantChecks == 0 {
		t.Fatalf("no invariant checks ran")
	}
	if snap.InvariantFailures != 0 {
		t.Fatalf("clean round trip failed invariants: %+v", snap)
	}
}

// TestIntegritySteadyStateAllocs extends the zero-allocation guarantee to
// the integrity-enabled execution path: checksum charging, brick probes,
// invariant sums and the pooled retain snapshot must allocate nothing in
// steady state.
func TestIntegritySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ic := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
	w := mpisim.NewWorld(machine.Summit(), 1, mpisim.Options{GPUAware: true, Integrity: ic})
	w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, Config{Global: [3]int{32, 32, 32}})
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		f := NewField(p.InBox())
		f.FillRandom(1)
		for i := 0; i < 3; i++ {
			if err := p.Forward(f); err != nil {
				t.Errorf("warm-up Forward: %v", err)
				return
			}
			if err := p.Inverse(f); err != nil {
				t.Errorf("warm-up Inverse: %v", err)
				return
			}
		}
		fwd := testing.AllocsPerRun(50, func() {
			if err := p.Forward(f); err != nil {
				panic(err)
			}
		})
		if fwd >= 1 {
			t.Errorf("steady-state Forward with integrity allocates %.2f times per call, want 0", fwd)
		}
	})
	if w.IntegrityCounters().Snapshot().InvariantChecks == 0 {
		t.Errorf("integrity path did not run")
	}
}

// TestCommPhasesChecksummed pins the CommPhases indicator for integrity.
func TestCommPhasesChecksummed(t *testing.T) {
	for _, on := range []bool{false, true} {
		var ic mpisim.IntegrityConfig
		if on {
			ic = mpisim.IntegrityConfig{Checksums: true, Invariants: true}
		}
		w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Integrity: ic})
		w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: [3]int{32, 32, 32}})
			if err != nil {
				t.Errorf("NewPlan: %v", err)
				return
			}
			for _, cp := range p.CommPhases() {
				if cp.GroupSize > 0 && cp.Checksummed != on {
					t.Errorf("phase %s: Checksummed = %v, want %v", cp.Label, cp.Checksummed, on)
				}
			}
		})
	}
}

// TestPhantomRealTimingParity pins that phantom executions charge the exact
// virtual time of real ones with the full integrity stack enabled — the
// property tuning and capacity planning rely on.
func TestPhantomRealTimingParity(t *testing.T) {
	global := [3]int{32, 32, 32}
	ic := mpisim.IntegrityConfig{Checksums: true, Invariants: true}
	clockFor := func(phantom bool) float64 {
		ref := globalSignal(global, 7)
		w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{GPUAware: true, Integrity: ic})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global})
			if err != nil {
				t.Errorf("NewPlan: %v", err)
				return
			}
			var f *Field
			if phantom {
				f = NewPhantom(p.InBox())
			} else {
				f = &Field{Box: p.InBox(), Data: scatter(ref, global, p.InBox())}
			}
			if err := p.Forward(f); err != nil {
				t.Errorf("Forward: %v", err)
			}
		})
		return res.MaxClock
	}
	concrete, phantom := clockFor(false), clockFor(true)
	if concrete != phantom {
		t.Errorf("phantom clock %g != real clock %g with integrity on", phantom, concrete)
	}
}

// TestInvariantsNeverMakeARunCheaper: arming the ABFT phase invariants adds
// priced work (a retained snapshot and a verification sum per stage and
// entry) and removes none, so a batched transform with them on is never
// faster than without, and costs at most 3 % more — the integrity layer's
// overhead gate. Every stage's deferred per-entry cost, the part a batch
// hides behind the next exchange, counts its kernel either way.
func TestInvariantsNeverMakeARunCheaper(t *testing.T) {
	const ranks = 6
	global := [3]int{32, 32, 32}
	makespan := func(batch, chunks int, invariants bool) float64 {
		w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{
			GPUAware: true, Integrity: mpisim.IntegrityConfig{Invariants: invariants}})
		res := w.Run(func(c *mpisim.Comm) {
			p, err := NewPlan(c, Config{Global: global, Opts: Options{
				Decomp: DecompPencils, Backend: BackendAlltoallv, Comm: CommConfig{Chunks: chunks}}})
			if err != nil {
				t.Errorf("NewPlan: %v", err)
				return
			}
			fs := make([]*Field, batch)
			for i := range fs {
				fs[i] = NewField(p.InBox())
				fpFill(fs[i].Data, c.Rank(), i)
			}
			if err := p.ForwardBatch(fs); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		})
		if res.Err != nil {
			t.Fatalf("batch %d, %d chunks, invariants %v: %v", batch, chunks, invariants, res.Err)
		}
		return res.MaxClock
	}
	for _, batch := range []int{1, 2, 4} {
		for _, chunks := range []int{1, 2} {
			off, on := makespan(batch, chunks, false), makespan(batch, chunks, true)
			t.Logf("batch %d, %d chunks: %.1f µs → %.1f µs with invariants (%.3f×)", batch, chunks, off*1e6, on*1e6, on/off)
			if on < off || on > 1.03*off {
				t.Errorf("batch %d, %d chunks: invariants take the makespan from %.1f µs to %.1f µs (%.3f×), want within [1, 1.03]×",
					batch, chunks, off*1e6, on*1e6, on/off)
			}
		}
	}
}
