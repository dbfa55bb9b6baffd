// Package repro reproduces "Performance Analysis of Parallel FFT on Large
// Multi-GPU Systems" (A. Ayala, S. Tomov, M. Stoyanov, A. Haidar,
// J. Dongarra — IPDPSW 2022) as a standard-library-only Go system (one
// optional amd64 assembly file in internal/fft — the butterfly passes along a
// line and across the rows of adjacent strided lines — bit-identical to its
// Go reference): a heFFTe-like distributed
// 3-D FFT (package heffte / internal/core) running on a virtual-time MPI
// simulator (internal/mpisim) over calibrated Summit/Spock hardware models
// (internal/machine), with the paper's bandwidth model (internal/model),
// tuning methodology (internal/tuning), application proxies (internal/apps)
// and a benchmark harness regenerating every table and figure
// (internal/bench, cmd/fftbench).
//
// The heffte facade is the entire public surface — programs never import
// repro/internal/... directly. Beyond plan construction (NewPlan from a
// Config literal), it exposes tuning (Tune, DefaultCandidates, Best), the
// bandwidth model (SlabTime, PencilTime, PhaseDiagram), trace export
// (WriteChromeFile), and typed sentinel errors (ErrBadConfig,
// ErrMismatchedBoxes, ErrPlanClosed) that classify failures through
// errors.Is.
//
// Under the facade, the execution engine keeps the host-side hot path
// allocation-free: local arrays and staging buffers come from a process-wide
// size-class pool, and an array drawn from it belongs to the plan until its
// last reader is done — a reshape of plan-owned arrays ships views and its
// receivers copy box to box out of the sender's array, so nothing is packed
// and each element is copied once; FFT kernel plans (twiddles, bit-reversal
// tables) are cached per plan axis and shared by the rank goroutines, and a
// batched transform runs on its rank's goroutine. Steady-state
// Forward/Inverse of a single-rank plan performs zero allocations (asserted
// by testing.AllocsPerRun), and a plan with reshapes allocates no payload
// once a caller hands each call's output to the next (the array a transform
// leaves in Field.Data is valid until that field's next transform), while
// virtual-time results are unchanged — simulated costs depend only on bytes
// and location, never on buffer ownership.
//
// One layer above the facade, heffte/serve turns the batched engine into a
// concurrent FFT service: a long-lived Server coalesces same-shape requests
// from independent goroutines into fused batched executions on a shape-keyed
// LRU of resident plans, with admission control (ErrOverloaded), deadline
// propagation (ErrDeadlineExceeded), and per-shape throughput/latency
// instrumentation. The generic scheduler core lives in internal/sched;
// cmd/fftserve drives synthetic open-loop load against it, or against the
// one-plan-per-request baseline (-mode perplan) for comparison.
//
// The simulator also injects the failure modes of large systems: a seeded,
// reproducible fault plan (GenerateFaults, internal/faults) schedules link
// degradation, stalls, dropped/corrupted messages and rank kills, surfaced
// as typed errors (ErrRankFailed, ErrMessageCorrupt, ErrExchangeTimeout)
// with rank and pipeline-phase context instead of silent hangs — a
// per-exchange virtual-time bound guarantees a stalled or dead peer becomes
// a bounded error under every exchange strategy. The serving layer recovers:
// fault-failed batches retry on rebuilt engines with backoff and batch
// splitting, persistent failures trip a per-shape circuit breaker into a
// degraded fresh-plan-per-request mode, and all of it is visible in
// Server.Stats. `fftserve -chaos faults` replays a seeded fault schedule
// under verified load and asserts zero lost or corrupted responses.
//
// See README.md for a tour and DESIGN.md for the system inventory.
package repro
