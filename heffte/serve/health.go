package serve

import (
	"sort"
	"sync"

	"repro/heffte"
)

// quarantineThreshold is the accumulated per-GPU-slot suspicion (retransmits
// and invariant failures) at which the slot is quarantined.
const quarantineThreshold = 3

// Health ledger. When Config.Integrity arms the silent-data-corruption
// defenses, every recovery action carries evidence about WHERE the corruption
// came from: a transport retransmit suspects the sending rank's link, a
// failed phase invariant suspects the executing rank's GPU. The ledger
// accumulates that evidence per physical GPU slot (slots keep their identity
// across engine rebuilds, unlike ranks), and once a slot's suspicion reaches
// quarantineThreshold it is quarantined: engines using it are
// invalidated and every future engine is built with a placement that avoids
// quarantined slots — surgical recovery around the bad hardware instead of
// retrying onto it forever.
type health struct {
	mu          sync.Mutex
	suspicion   map[int]int64 // GPU slot → accumulated suspicion
	quarantined map[int]bool
	quarantines uint64       // slots ever quarantined
	rebuilds    uint64       // engines invalidated for using a quarantined slot
	lost        map[int]bool // GPU slots lost to elastic shrinks
	integ       heffte.IntegritySnapshot
}

// noteHealth harvests an engine's integrity counters and per-rank suspicion
// deltas into the ledger, quarantining slots that crossed the threshold. It
// reports whether the engine occupies a quarantined slot and must be rebuilt
// elsewhere. No-op (false) when integrity is off.
func (s *Server) noteHealth(e *engine) bool {
	if !s.cfg.Integrity.Enabled() {
		return false
	}
	snap, susp := e.harvest()
	slots := e.slotList()
	h := &s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	h.integ.Add(snap)
	for slot, d := range susp {
		if d <= 0 {
			continue
		}
		h.suspicion[slot] += d
		if !h.quarantined[slot] && h.suspicion[slot] >= quarantineThreshold {
			h.quarantined[slot] = true
			h.quarantines++
		}
	}
	tainted := false
	for _, slot := range slots {
		if h.quarantined[slot] {
			tainted = true
		}
	}
	if tainted {
		h.rebuilds++
	}
	return tainted
}

// placementFor returns the placement (and its rank→slot map) for a new
// engine of the given size: block placement while every slot is healthy, or
// a permutation that keeps healthy block assignments and moves displaced
// ranks onto the lowest free non-quarantined slots.
func (s *Server) placementFor(ranks int) (heffte.Placement, []int) {
	base := heffte.PlaceBlock()
	slots := base.Slots(heffte.Summit(), ranks)
	s.health.mu.Lock()
	quarantined := make(map[int]bool, len(s.health.quarantined))
	for sl := range s.health.quarantined {
		quarantined[sl] = true
	}
	s.health.mu.Unlock()
	if len(quarantined) == 0 {
		return base, slots
	}
	used := make(map[int]bool, ranks)
	next := 0
	alloc := func() int {
		for quarantined[next] || used[next] {
			next++
		}
		used[next] = true
		return next
	}
	out := make([]int, ranks)
	for r, sl := range slots {
		if quarantined[sl] || used[sl] {
			out[r] = alloc()
		} else {
			used[sl] = true
			out[r] = sl
		}
	}
	return heffte.PlacePermutation(out), out
}

// IntegrityStats is the silent-data-corruption section of Stats: what the
// checksummed transport and ABFT invariants checked, caught and repaired
// across every engine the server ran, plus the health ledger's verdicts.
type IntegrityStats struct {
	// Totals accumulates the integrity counters of every engine world:
	// envelope checks/mismatches, block retransmits, ABFT invariant
	// checks/failures, and phase re-executions.
	Totals heffte.IntegritySnapshot
	// Quarantines counts GPU slots quarantined for accumulated suspicion.
	Quarantines uint64
	// QuarantineRebuilds counts engine invalidations forced by quarantine.
	QuarantineRebuilds uint64
	// QuarantinedSlots lists the quarantined GPU slots, ascending.
	QuarantinedSlots []int
	// Suspicion maps GPU slots to accumulated suspicion (nonzero only).
	Suspicion map[int]int64
}

func (s *Server) integrityStats() IntegrityStats {
	h := &s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	is := IntegrityStats{
		Totals:             h.integ,
		Quarantines:        h.quarantines,
		QuarantineRebuilds: h.rebuilds,
		Suspicion:          make(map[int]int64, len(h.suspicion)),
	}
	for sl, v := range h.suspicion {
		is.Suspicion[sl] = v
	}
	for sl := range h.quarantined {
		is.QuarantinedSlots = append(is.QuarantinedSlots, sl)
	}
	sort.Ints(is.QuarantinedSlots)
	return is
}
