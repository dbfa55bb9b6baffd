// Package trace collects per-call virtual-time event records from the MPI
// simulator and the GPU execution model. The per-call figures of the paper
// (Figs. 2, 3, 10) and the runtime breakdowns (Figs. 6, 7, 12) are built from
// these events.
package trace

import (
	"math"
	"sort"
	"sync"
)

// Event is one timed operation on one rank, in virtual seconds.
type Event struct {
	Rank  int
	Name  string  // e.g. "MPI_Alltoallv", "cufft_1d", "pack"
	Start float64 // virtual time the call began
	End   float64 // virtual time the call returned
	Bytes int     // payload bytes (0 for compute kernels)
}

// Duration returns the call's virtual duration.
func (e Event) Duration() float64 { return e.End - e.Start }

// Tracer accumulates events. A nil *Tracer is valid and records nothing, so
// call sites never need to check for enablement.
type Tracer struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record appends an event. Safe for concurrent use; no-op on a nil tracer.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Prune drops every event that started before the given virtual time.
// Pruning by *virtual* time is deterministic no matter how ranks'
// real-time recording interleaves — the benchmark harness uses it to cut
// warm-up activity out of a measurement window that begins at a barrier.
func (t *Tracer) Prune(before float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	kept := t.events[:0]
	for _, e := range t.events {
		if e.Start >= before {
			kept = append(kept, e)
		}
	}
	t.events = kept
	t.mu.Unlock()
}

// Events returns a copy of all events sorted by (Name, Rank, Start).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Start < b.Start
	})
	return out
}

// TotalByName attributes one rank's timeline to event names: each instant
// an event covers counts once, toward the outermost event covering it (the
// earliest to start, the longer on a tie), so an event nested in another — a
// halo exchange's own MPI calls, a send's checksum pass, a stall inside a
// collective — adds nothing of its own, and the totals never exceed the
// rank's elapsed time. The breakdowns of Figs. 6, 7 and 12 report the rank
// that finishes last, the one the paper's slowest-process plots show.
func (t *Tracer) TotalByName(rank int) map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var evs []Event
	for _, e := range t.events {
		if e.Rank == rank {
			evs = append(evs, e)
		}
	}
	t.mu.Unlock()
	// A rank records its events in program order; the stable sort keeps that
	// order on a full tie, so the totals are reproducible.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].End > evs[j].End
	})
	out := map[string]float64{}
	covered := math.Inf(-1)
	for _, e := range evs {
		if e.End > covered {
			out[e.Name] += e.End - max(e.Start, covered)
			covered = e.End
		}
	}
	return out
}

// PerCall returns, for each successive call of the named operation, the
// maximum duration over ranks. Calls are identified by their per-rank order
// of occurrence (call #i on every rank is the same logical collective), which
// is how the per-call plots of Figs. 2 and 3 are drawn.
func (t *Tracer) PerCall(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byRank := map[int][]Event{}
	for _, e := range t.events {
		if e.Name == name {
			byRank[e.Rank] = append(byRank[e.Rank], e)
		}
	}
	var out []float64
	for _, evs := range byRank {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for i, e := range evs {
			if i >= len(out) {
				out = append(out, 0)
			}
			if d := e.Duration(); d > out[i] {
				out[i] = d
			}
		}
	}
	return out
}

// Names returns the distinct event names recorded, sorted.
func (t *Tracer) Names() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	set := map[string]bool{}
	for _, e := range t.events {
		set[e.Name] = true
	}
	t.mu.Unlock()
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
