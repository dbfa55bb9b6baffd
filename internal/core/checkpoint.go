package core

import (
	"fmt"
	"sync"

	"repro/internal/fft"
	"repro/internal/tensor"
)

// Phase checkpoints: with a CheckpointStore attached (Options.Checkpoints),
// every rank stages a host-resident snapshot of its fields at each stage
// boundary of an execution — the PR 8 ABFT retained
// bricks promoted into resumable state. Host DRAM survives a GPU death, so
// after World.Shrink the survivor world re-plans over the survivor count and
// ResumeBatch redistributes the last globally completed boundary to the new
// owners instead of re-executing the transform from its input.
//
// Each snapshot is priced through the device's Retain kernel (the same
// fused-copy charge the ABFT layer bills), so elastic executions pay their
// insurance premium in virtual time like every other defense.

// inputBoundary labels the pre-stage-0 checkpoint: the caller's input data.
const inputBoundary = "input"

// savedBoundary is one rank's state at one stage boundary: the fields' box
// and a copy of every batch entry's data (nil for phantom executions).
type savedBoundary struct {
	label string
	box   tensor.Box3
	data  [][]complex128
}

// rankLog is the boundary trail of one rank for one execution.
type rankLog struct {
	gen    int // execution generation the trail belongs to
	slot   int // physical GPU slot of the rank (host DRAM locator)
	bounds []savedBoundary
}

// CheckpointStore holds the per-rank phase checkpoints of one engine's
// current execution. It is shared by all ranks of a world (and survives the
// world across a shrink); all methods are safe for concurrent ranks.
//
// A store records exactly one execution at a time: each rank's begin clears
// its own trail. Callers running multiple executions against one store must
// call Advance between them (the serving layer does, once per dispatched
// batch) so a resume never mixes boundaries of different batches.
type CheckpointStore struct {
	mu      sync.Mutex
	gen     int
	global  [3]int
	decomp  Decomposition
	dir     fft.Direction
	batch   int
	phantom bool
	ranks   int
	logs    map[int]*rankLog // keyed by world rank
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{logs: map[int]*rankLog{}}
}

// Advance starts a new execution generation and returns it. Rank trails from
// earlier generations are ignored by resume, so a kill that lands before every rank
// of the new execution has checkpointed anything is detected as unresumable
// instead of silently mixing stale data.
func (s *CheckpointStore) Advance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	return s.gen
}

// Gen returns the current checkpoint generation. A caller that recorded the
// generation its batch executed under (Advance's return value) can tell
// whether the store still holds that batch's trails before resuming.
func (s *CheckpointStore) Gen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Decomp returns the resolved decomposition of the recorded execution, so a
// resume re-plan can pin it (DecompAuto could flip at the survivor count,
// desynchronizing the stage labels the cut is matched by).
func (s *CheckpointStore) Decomp() Decomposition {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decomp
}

// TruncateToInput drops every checkpointed boundary past the input from all
// trails. It is the restart-baseline tool: resuming from a truncated store
// redistributes the input and re-executes every phase at the survivor count —
// exactly what an evict-and-rebuild restart pays after a shrink — so the
// resume-vs-restart latency gap can be measured with both recoveries going
// through the same agreement and redistribution machinery.
func (s *CheckpointStore) TruncateToInput() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.logs {
		if len(l.bounds) <= 1 {
			continue
		}
		for _, b := range l.bounds[1:] {
			for _, d := range b.data {
				putBuf(d)
			}
		}
		l.bounds = l.bounds[:1]
	}
}

// begin opens this rank's trail for the current generation, dropping any
// previous one. Metadata is identical across ranks of one execution.
func (s *CheckpointStore) begin(rank, slot int, global [3]int, decomp Decomposition, dir fft.Direction, batch int, phantom bool, ranks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.logs[rank]; ok {
		for _, b := range old.bounds {
			for _, d := range b.data {
				putBuf(d)
			}
		}
	}
	s.logs[rank] = &rankLog{gen: s.gen, slot: slot}
	s.global, s.decomp, s.dir = global, decomp, dir
	s.batch, s.phantom, s.ranks = batch, phantom, ranks
}

// save appends one boundary to the rank's trail. The data arrays become
// store-owned.
func (s *CheckpointStore) save(rank int, label string, box tensor.Box3, data [][]complex128) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.logs[rank]
	if !ok {
		panic(fmt.Sprintf("core: checkpoint save on rank %d without begin", rank))
	}
	l.bounds = append(l.bounds, savedBoundary{label: label, box: box, data: data})
}

// ckptSnapshot is a detached view of one execution's checkpoints, handed to
// resume. Read-only after detach; its data arrays are not recycled (resume
// happens once per shrink, and the snapshot may be shared by every rank).
type ckptSnapshot struct {
	gen     int
	global  [3]int
	decomp  Decomposition
	dir     fft.Direction
	batch   int
	phantom bool
	ranks   int
	logs    map[int]*rankLog
}

// detach removes the current trails from the store so the resumed execution's
// own checkpoints (written under the new world's ranks) never clobber the
// state being restored.
func (s *CheckpointStore) detach() *ckptSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &ckptSnapshot{
		gen: s.gen, global: s.global, decomp: s.decomp, dir: s.dir,
		batch: s.batch, phantom: s.phantom, ranks: s.ranks, logs: s.logs,
	}
	s.logs = map[int]*rankLog{}
	return snap
}

// cut determines the resumable boundary: the deepest boundary index every
// rank of the recorded execution reached. Returns an error when any rank's
// trail is missing or belongs to a stale generation — the kill then landed
// before the execution was uniformly checkpointed, and restart is the only
// safe recovery.
func (snap *ckptSnapshot) cut() (int, error) {
	if snap.ranks == 0 {
		return 0, fmt.Errorf("core: checkpoint store is empty")
	}
	cut := -1
	for r := 0; r < snap.ranks; r++ {
		l, ok := snap.logs[r]
		if !ok || l.gen != snap.gen {
			return 0, fmt.Errorf("core: rank %d has no checkpoint trail for the interrupted execution", r)
		}
		if len(l.bounds) == 0 {
			return 0, fmt.Errorf("core: rank %d checkpointed no boundary", r)
		}
		if d := len(l.bounds) - 1; cut < 0 || d < cut {
			cut = d
		}
	}
	return cut, nil
}

// boundary returns the cut boundary of one old rank (every trail holds at
// least cut+1 entries by construction).
func (snap *ckptSnapshot) boundary(rank, cut int) savedBoundary {
	return snap.logs[rank].bounds[cut]
}
