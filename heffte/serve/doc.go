// Package serve turns the batched-transform engine into a concurrent FFT
// service: a long-lived Server accepts Submit calls from many goroutines,
// coalesces same-shape requests into fused batched executions, and applies
// admission control so overload degrades into fast-fails instead of
// unbounded queues.
//
// # Why a serving layer
//
// The paper's batched transforms (Plan.ForwardBatch) deliver their >2×
// speedup on small grids by amortizing fixed per-exchange costs — message
// latency, posting overhead, kernel launches — over many payloads. But
// ForwardBatch only helps callers who already hold a batch. Independent
// concurrent clients each hold one transform; the serving layer is the
// missing step that turns their temporal proximity into the engine's spatial
// batching: requests for the same shape (global extents, decomposition,
// direction) that arrive within a configurable window — or that
// pile up while the worker pool is busy — execute as one fused batch on a
// shared resident plan.
//
// # When to use Server vs a raw Plan
//
// Use a raw Plan (heffte.NewPlan) when one caller owns the loop: an
// application that transforms the same field every timestep wants plan reuse
// without scheduling in between. Use serve.Server when transforms arrive as
// independent requests — many goroutines, mixed shapes, no natural batching
// — and you want throughput under load plus bounded memory. The server owns
// plan lifetimes (a refcounted LRU keyed by shape keeps hot shapes resident
// and closes cold ones), deadlines (context-aware Submit), and backpressure.
//
// # Batching and backpressure semantics
//
//   - Coalescing: the first request of a shape opens a Window; same-shape
//     requests arriving inside it join the batch. A batch is cut when a
//     worker picks it up or at MaxBatch, whichever comes first — so under
//     load batches grow toward MaxBatch, and when idle a request waits at
//     most one window.
//   - Admission control: at most MaxQueue requests may be waiting; beyond
//     that Submit fails immediately with heffte.ErrOverloaded.
//   - Deadlines: a request whose context deadline expires before its batch
//     starts is dropped and fails with heffte.ErrDeadlineExceeded (also
//     matching context.DeadlineExceeded). Cancelling a request mid-execution
//     returns early to the submitter; its batch-mates are unaffected.
//   - Correctness: a coalesced batch produces results bit-identical to
//     running the same requests sequentially — batch entries are
//     independent arrays through one fused pipeline execution.
//
// # Fault recovery
//
// Engines run on simulated worlds that can fail (injected faults — see
// heffte.GenerateFaults — model the rank kills, dropped/corrupted messages
// and stragglers of real large systems). The server recovers instead of
// propagating every fault to submitters:
//
//   - A batch failing with a fault-class error (heffte.IsFault) evicts its
//     engine — the world is permanently failed — and retries on a freshly
//     built one, with capped exponential backoff plus jitter (MaxRetries,
//     RetryBackoff, RetryBackoffCap).
//   - Multi-request batches split in half on retry, isolating a poison
//     request from its batch-mates; per-item outcomes are delivered
//     individually (sched.BatchErrors).
//   - BreakerThreshold consecutive fault-failed batches of one shape trip a
//     per-shape circuit breaker: while open, the shape's requests execute
//     degraded — one fresh clean world and plan per request — until the
//     cooldown expires and a probe batch closes the breaker.
//   - Engines transform Data where it lies (the input reshape reads it, the
//     output reshape writes it), and a failed batch leaves it as submitted —
//     an engine with a fault plan restores its copy — so the automatic
//     retries and client resubmissions start from the original data.
//
// Retries, batch splits, fault evictions, breaker trips and degraded
// executions are all counted in Stats().Recovery; `fftserve -chaos` drives
// a seeded fault schedule under verified load and asserts zero lost or
// corrupted responses.
//
// # Minimal use
//
//	srv := serve.New(serve.Config{Ranks: 8})
//	defer srv.Close()
//	req := &serve.Request{Global: [3]int{64, 64, 64}, Data: signal}
//	if err := srv.Submit(ctx, req); err != nil { ... }
//	// req.Data now holds the spectrum.
//
// Server.Stats exposes per-shape counters (submitted, coalesced batches,
// rejected, deadline-exceeded), batch-size and latency histograms, and
// plan-cache state; cmd/fftserve drives a synthetic open-loop load against
// it and prints achieved throughput, p50/p99 latency, and mean batch size.
package serve
