package faults

import (
	"reflect"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Stalls: 3, Drops: 1, Corrupts: 2, Degrades: 2}
	a := Generate(42, 16, cfg)
	b := Generate(42, 16, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\n%v", a, b)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	c := Generate(43, 16, cfg)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("different seeds share fingerprint %s", a.Fingerprint())
	}
}

func TestGenerateBoundsAndDefaults(t *testing.T) {
	cfg := Config{Stalls: 5, Drops: 5, Corrupts: 5, Degrades: 5}
	p := Generate(7, 8, cfg)
	if p.Timeout != 1.0 {
		t.Errorf("default timeout = %g, want 1.0", p.Timeout)
	}
	if len(p.Events) != 20 {
		t.Fatalf("got %d events, want 20", len(p.Events))
	}
	for _, e := range p.Events {
		if e.Rank < 0 || e.Rank >= 8 {
			t.Errorf("event rank %d outside world", e.Rank)
		}
		if e.Op < 0 || e.Op >= 64 {
			t.Errorf("event op %d outside default horizon", e.Op)
		}
		if e.Kind == Stall && e.Delay != 3.0 {
			t.Errorf("default stall delay = %g, want 3×timeout = 3.0", e.Delay)
		}
		if e.Kind == Degrade && e.Factor <= 1 {
			t.Errorf("degrade factor %g not > 1", e.Factor)
		}
	}
	// Events are sorted by (rank, op) regardless of generation order.
	for i := 1; i < len(p.Events); i++ {
		a, b := p.Events[i-1], p.Events[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Op > b.Op) {
			t.Fatalf("events not sorted at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestEffectSemantics(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Kill, Rank: 1, Op: 3},
		{Kind: Drop, Rank: 2, Op: 0},
		{Kind: Corrupt, Rank: 2, Op: 1},
		{Kind: Stall, Rank: 0, Op: 2, Delay: 0.5, Count: 3},
		{Kind: Jitter, Rank: 0, Op: 3, Delay: 0.1},
		{Kind: Degrade, Rank: 3, Op: 1, Factor: 4, Count: 2},
	}}
	// Point faults fire only at their exact op.
	if !p.Effect(1, 3).Kill || p.Effect(1, 2).Kill || p.Effect(1, 4).Kill {
		t.Error("kill must fire exactly at its op")
	}
	if !p.Effect(2, 0).Drop || p.Effect(2, 1).Drop {
		t.Error("drop must fire exactly at its op")
	}
	if !p.Effect(2, 1).Corrupt || p.Effect(2, 0).Corrupt {
		t.Error("corrupt must fire exactly at its op")
	}
	// Stall spans Count ops and stacks with overlapping jitter.
	if got := p.Effect(0, 2).Stall; got != 0.5 {
		t.Errorf("stall at op 2 = %g, want 0.5", got)
	}
	if got := p.Effect(0, 3).Stall; got != 0.6 {
		t.Errorf("stall+jitter at op 3 = %g, want 0.6", got)
	}
	if got := p.Effect(0, 5).Stall; got != 0 {
		t.Errorf("stall past span = %g, want 0", got)
	}
	// Degrade covers [op, op+count).
	if got := p.Effect(3, 2).Factor; got != 4 {
		t.Errorf("degrade factor = %g, want 4", got)
	}
	if !p.Effect(3, 3).Zero() {
		t.Error("past the degrade span the effect must be zero")
	}
	// Other ranks are untouched; nil plans inject nothing.
	if !p.Effect(5, 0).Zero() {
		t.Error("unrelated rank perturbed")
	}
	var nilPlan *Plan
	if !nilPlan.Effect(0, 0).Zero() || nilPlan.Active() {
		t.Error("nil plan must be inert")
	}
	if nilPlan.Fingerprint() != "clean" {
		t.Errorf("nil fingerprint = %q", nilPlan.Fingerprint())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := &Plan{Timeout: 1, Events: []Event{{Kind: Kill, Rank: 0, Op: 0}}}
	b := &Plan{Timeout: 1, Events: []Event{{Kind: Kill, Rank: 1, Op: 0}}}
	c := &Plan{Timeout: 2, Events: []Event{{Kind: Kill, Rank: 0, Op: 0}}}
	if a.Fingerprint() == b.Fingerprint() || a.Fingerprint() == c.Fingerprint() {
		t.Errorf("distinct plans share fingerprints: %s %s %s",
			a.Fingerprint(), b.Fingerprint(), c.Fingerprint())
	}
	if a.Fingerprint() != (&Plan{Timeout: 1, Events: []Event{{Kind: Kill, Rank: 0, Op: 0}}}).Fingerprint() {
		t.Error("fingerprint not stable for identical plans")
	}
}
