package serve

import (
	"fmt"

	"repro/heffte"
	"repro/internal/tensor"
)

// Elastic recovery: resume, not restart. When a rank of an elastic engine is
// killed mid-batch, the engine does not have to be evicted — the world's
// survivors agree on the dead set and shrink (heffte World.Shrink), a plan
// rebuilt over the survivor count redistributes the last globally completed
// phase checkpoint, and the interrupted batch finishes from where it stopped
// (Plan.ResumeBatch). The engine keeps its cache slot across the capacity
// loss: subsequent batches run on the shrunken backend at the bumped world
// epoch, and the health ledger records the dead GPU slots as lost.

// errNotResumable marks elastic recoveries that fell back to the
// evict-and-rebuild path (stale checkpoints, no recorded deaths, infeasible
// redistribution). It is internal: callers fall through to the retry path.
var errNotResumable = fmt.Errorf("serve: batch not resumable")

// elasticResume attempts in-place shrink+resume of a fault-failed batch and
// updates the server ledgers: Resumed on success (plus the capacity loss),
// Restarted when the batch must go back through evict-and-rebuild.
func (s *Server) elasticResume(e *engine, tk ticket, dir Direction, reqs []*Request) error {
	deadSlots, err := e.shrinkResume(tk, dir, reqs)
	s.rec.mu.Lock()
	if err == nil {
		s.rec.resumed++
	}
	s.rec.mu.Unlock()
	if len(deadSlots) > 0 {
		s.noteCapacityLoss(deadSlots)
	}
	return err
}

// shrinkResume recovers a fault-failed batch in place: shrink the backend's
// world to its survivors, resume the interrupted batch from its last
// globally completed phase checkpoint on a fresh backend, and swap that
// backend in. On success the request payloads hold the batch's results —
// bit-identical to a clean execution at the survivor count — and the engine
// stays resident. It returns the GPU slots lost to the shrink (when one
// happened) and an error when the batch could not be resumed.
func (e *engine) shrinkResume(tk ticket, dir Direction, reqs []*Request) (deadSlots []int, err error) {
	if e.store == nil {
		return nil, errNotResumable
	}
	e.shrinkMu.Lock()
	defer e.shrinkMu.Unlock()
	if e.backend() != tk.be {
		// A concurrent recovery already swapped in a shrunken backend and
		// consumed the checkpoints; this batch's trails are gone. Re-execute
		// from its (pristine) request payloads on the new backend.
		_, rerr := e.execute(dir, reqs)
		return nil, rerr
	}
	// Freeze dispatch for the whole recovery: a batch dispatched mid-resume
	// would advance the checkpoint generation and clobber survivor trails.
	e.dispatchMu.Lock()
	defer e.dispatchMu.Unlock()
	if e.store.Gen() != tk.gen {
		// Another batch already started a newer generation on the dead world;
		// the interrupted batch's trails were dropped by its begins.
		return nil, errNotResumable
	}
	old := tk.be
	ow := old.world
	// Stop the old rank loops: still-buffered jobs fail fast on the dead
	// world (their dispatchers retry), then Run winds down.
	old.close()
	nw, serr := ow.Shrink()
	if serr != nil {
		// No recorded deaths (the fault was not a kill) or the world was
		// already superseded: nothing to shrink to.
		return nil, fmt.Errorf("%w: %v", errNotResumable, serr)
	}
	oldSlots := e.slotList()
	for _, r := range ow.DeadRanks() {
		if r < len(oldSlots) {
			deadSlots = append(deadSlots, oldSlots[r])
		}
	}
	survivors := ow.Survivors()
	newSlots := make([]int, len(survivors))
	for i, r := range survivors {
		newSlots[i] = oldSlots[r]
	}
	// Re-plan over the survivors with the recorded decomposition pinned
	// (DecompAuto could flip at the new count and desynchronize the stage
	// labels the checkpoint cut is matched by), resume the batch, then serve.
	res := &resumeRun{}
	be2, berr := e.startBackend(nw, e.store.Decomp(), res)
	if berr != nil {
		return deadSlots, fmt.Errorf("%w: survivor plan: %v", errNotResumable, berr)
	}
	res.wg.Wait()
	if rerr := res.firstErr(); rerr != nil {
		be2.close()
		return deadSlots, fmt.Errorf("%w: %v", errNotResumable, rerr)
	}
	if len(res.fields) == 0 || len(res.fields[0]) != len(reqs) {
		be2.close()
		return deadSlots, fmt.Errorf("%w: resumed batch width %d != %d",
			errNotResumable, len(res.fields[0]), len(reqs))
	}
	for i, req := range reqs {
		for r := 0; r < be2.size; r++ {
			f := res.fields[r][i]
			tensor.Unpack(req.Data, tensor.FullBox(e.key.global), f.Box, f.Data)
		}
	}
	e.statsMu.Lock()
	// Fold the retired world's final integrity deltas into the carry so the
	// next harvest still attributes them, then swap the backend in.
	cd, cs := e.harvestLocked()
	e.carryInteg.Add(cd)
	if len(cs) > 0 && e.carrySusp == nil {
		e.carrySusp = make(map[int]int64)
	}
	for sl, v := range cs {
		e.carrySusp[sl] += v
	}
	e.be = be2
	e.slots = newSlots
	e.lastInteg = heffte.IntegritySnapshot{}
	e.lastSusp = nil
	e.batches++
	e.requests += uint64(len(reqs))
	e.resumed++
	e.virtualSec = res.clockEnd
	e.statsMu.Unlock()
	return deadSlots, nil
}

// slotList returns a copy of the current backend's rank→GPU-slot map.
func (e *engine) slotList() []int {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	out := make([]int, len(e.slots))
	copy(out, e.slots)
	return out
}

// noteCapacityLoss records GPU slots lost to an elastic shrink: the health
// ledger marks them dead and quarantines them, so engines built later place
// their ranks around the lost hardware.
func (s *Server) noteCapacityLoss(slots []int) {
	h := &s.health
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lost == nil {
		h.lost = map[int]bool{}
	}
	for _, sl := range slots {
		h.lost[sl] = true
		if !h.quarantined[sl] {
			h.quarantined[sl] = true
			h.quarantines++
		}
	}
}
