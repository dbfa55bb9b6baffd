// Package trace collects per-call virtual-time event records from the MPI
// simulator and the GPU execution model. The per-call figures of the paper
// (Figs. 2, 3, 10) and the runtime breakdowns (Figs. 6, 7, 12) are built from
// these events.
package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
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

// Tracer accumulates events in one shard per rank: a rank records into its
// own shard, so recording takes no lock another rank contends for and grows no
// slice another rank appends to. A nil *Tracer is valid and records nothing,
// so call sites never need to check for enablement.
type Tracer struct {
	grow   sync.Mutex               // serializes adding shards
	shards atomic.Pointer[[]*shard] // by rank; replaced, never modified, when it grows
}

// shard is one rank's events in the order the rank recorded them. Its lock
// is uncontended while the rank records: readers take it once per call.
type shard struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// loaded returns the shards recorded so far (index = rank).
func (t *Tracer) loaded() []*shard {
	if s := t.shards.Load(); s != nil {
		return *s
	}
	return nil
}

// shard returns rank's shard, adding shards up to it on first use.
func (t *Tracer) shard(rank int) *shard {
	if s := t.loaded(); rank < len(s) {
		return s[rank]
	}
	if rank < 0 {
		panic(fmt.Sprintf("trace: event of rank %d", rank))
	}
	t.grow.Lock()
	defer t.grow.Unlock()
	old := t.loaded()
	if rank < len(old) {
		return old[rank]
	}
	grown := make([]*shard, max(rank+1, 2*len(old)))
	copy(grown, old)
	for i := len(old); i < len(grown); i++ {
		grown[i] = new(shard)
	}
	t.shards.Store(&grown)
	return grown[rank]
}

// snapshot returns a copy of the shard's events.
func (s *shard) snapshot() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Record appends an event to its rank's shard. Safe for concurrent use; no-op
// on a nil tracer.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	s := t.shard(e.Rank)
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Prune drops every event that started before the given virtual time.
// Pruning by *virtual* time is deterministic no matter how ranks'
// real-time recording interleaves — the benchmark harness uses it to cut
// warm-up activity out of a measurement window that begins at a barrier.
func (t *Tracer) Prune(before float64) {
	if t == nil {
		return
	}
	for _, s := range t.loaded() {
		s.mu.Lock()
		kept := s.events[:0]
		for _, e := range s.events {
			if e.Start >= before {
				kept = append(kept, e)
			}
		}
		s.events = kept
		s.mu.Unlock()
	}
}

// Events returns a copy of all events sorted by (Name, Rank, Start). Events
// equal in all three keep the order their rank recorded them in, so the result
// does not depend on how the ranks' recording interleaved.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, s := range t.loaded() {
		out = append(out, s.snapshot()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
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
	var evs []Event
	if s := t.loaded(); rank >= 0 && rank < len(s) {
		evs = s[rank].snapshot()
	}
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

// Breakdown is the one breakdown view of a measured span: rank's timeline
// (TotalByName) per transform — each recorded name's total divided by count,
// the measurement's own closing MPI_Barrier left out — plus "wait", the part
// of elapsed no event covers: elapsed (the span's time per transform) minus
// the rows in sorted name order, clamped at 0. Every recorded name gets a row,
// zero when rank has no event of it. The rows and wait add up to elapsed.
func (t *Tracer) Breakdown(rank, count int, elapsed float64) map[string]float64 {
	if t == nil {
		return nil
	}
	totals := t.TotalByName(rank)
	rows := map[string]float64{}
	wait := elapsed
	for _, name := range t.Names() {
		if name == "MPI_Barrier" {
			continue
		}
		v := totals[name] / float64(count)
		rows[name] = v
		wait -= v
	}
	rows["wait"] = max(0, wait)
	return rows
}

// PerCall returns, for each successive call of the named operation, the
// maximum duration over ranks. Calls are identified by their per-rank order
// of occurrence (call #i on every rank is the same logical collective), which
// is how the per-call plots of Figs. 2 and 3 are drawn.
func (t *Tracer) PerCall(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.loaded() {
		var evs []Event
		for _, e := range s.snapshot() {
			if e.Name == name {
				evs = append(evs, e)
			}
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
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
	set := map[string]bool{}
	for _, s := range t.loaded() {
		s.mu.Lock()
		for _, e := range s.events {
			set[e.Name] = true
		}
		s.mu.Unlock()
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
