# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build vet test test-race race race-serve bench bench-kernel bench-scale bench-exchange bench-topo bench-precision bench-elastic bench-serve smoke-serve chaos chaos-sdc chaos-elastic examples experiments quick-experiments

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The simulator is heavily concurrent; the race detector is a useful gate.
# The fft package shares kernel plans and a worker pool across rank
# goroutines, and core ships pool buffers between ranks with move semantics —
# both live under this gate.
test-race:
	go test -race ./internal/mpisim/ ./internal/core/ ./internal/trace/ ./internal/fft/

# The serving layer multiplexes many submitters onto shared engines; its
# scheduler, plan cache, and cancellation paths are all cross-goroutine.
race-serve:
	go test -race ./heffte/serve/ ./internal/sched/

race: test-race race-serve

bench:
	go test -bench=. -benchmem ./...

# Single-line kernel ladder, strided/contiguous batches, the blocked reorder
# transposes (the BENCH_PR4.json numbers) and pack/unpack in their three
# run-coalescing regimes (row, plane, whole block).
bench-kernel:
	go test -run '^$$' -bench 'BenchmarkKernel|BenchmarkStridedBatch|BenchmarkContigBatch|BenchmarkFFTBluestein' -benchmem ./internal/fft/
	go test -run '^$$' -bench 'BenchmarkPackBlocked|BenchmarkPack$$|BenchmarkUnpack$$' -benchmem ./internal/tensor/

# The paper-scale proxy of the repository benchmark on its own: 768 phantom
# ranks, 512³ — rendezvous, per-call exchange vectors and GC, no payload.
bench-scale:
	go run ./benchmark -workload scale512_r768_phantom -seconds 20 -trace 0

# Virtual-time cost of the three scheduled all-to-all algorithms on a dense
# device-resident exchange (the BENCH_PR6.json regime check).
bench-exchange:
	go test -run '^$$' -bench 'BenchmarkExchange' -benchtime 100x ./internal/mpisim/

# Topology-layer gate: the node-aware two-level all-to-all must route bits
# identically to the linear baseline under round-robin placement, and must
# not lose to the strongest flat schedule on an inter-node-dominated shape
# (the BENCH_PR7.json regime check). Used by CI.
bench-topo:
	go test -run 'TestTopoSmoke' -count=1 -v ./internal/bench/

# Wire-precision gate: fp32/fp16 compressed exchanges on the staged path —
# speedup over fp64 and measured accuracy against the analytic bound (the
# BENCH_PR9.json regime check). Used by CI.
bench-precision:
	go run ./cmd/fftbench -exp precision -quick

# Elastic-recovery latency: resume-from-checkpoint vs restart-from-input after
# an injected kill, across kill phase and rank count (the BENCH_PR10.json
# numbers). The ≥1.5x late-kill bar itself is gated by the tier-1 test
# TestResumeBeatsRestartLateKill in internal/core.
bench-elastic:
	go run ./cmd/fftbench -exp elastic

# Coalescing-service throughput vs one-plan-per-request under identical
# open-loop load (the BENCH_PR2.json numbers).
bench-serve:
	go run ./cmd/fftserve -bench -ranks 128 -workers 1 -clients 32 -duration 8s -json BENCH_PR2.json

# Fast self-checking pass over the serving layer (used by CI).
smoke-serve:
	go run ./cmd/fftserve -smoke

# Seeded fault-injection run: verified load against engines with injected
# rank kills, drops, corruptions and stalls. Asserts zero lost/corrupted
# responses and that every recovery mechanism (retry, batch split, engine
# eviction, breaker trip, degraded path) actually fired. Same seed, same
# fault schedule — failures replay.
chaos:
	go run ./cmd/fftserve -chaos -smoke -seed 7

# Seeded silent-data-corruption run: bit-flipping GPUs pinned to physical
# slots under verified load with the integrity defenses armed (checksummed
# transport, ABFT phase invariants, health-ledger quarantine). Asserts zero
# wrong answers and that every defense (retransmit, phase re-execution,
# quarantine rebuild, typed budget-exhaustion failure) actually fired.
chaos-sdc:
	go run ./cmd/fftserve -chaos-sdc -smoke -seed 3
	go run ./cmd/fftserve -chaos-sdc -smoke -seed 11
	go run ./cmd/fftserve -chaos-sdc -smoke -seed 23

# Seeded kill storms against an elastic server: engines shrink to their
# survivors and resume interrupted batches from phase checkpoints, while
# non-kill fault storms fall back through evict-and-rebuild. Asserts zero
# lost/corrupted responses and that both the Resumed and Restarted recovery
# paths fire. Same seed, same storm — failures replay.
chaos-elastic:
	go run ./cmd/fftserve -chaos-elastic -smoke -seed 5

examples:
	go run ./examples/quickstart
	go run ./examples/real_transform
	go run ./examples/turbulence
	go run ./examples/tuning
	go run ./examples/lammps_kspace
	go run ./examples/serving

# Paper-scale reproduction of every table and figure, up to the 3072-GPU
# sweeps (~2 minutes on 2 cores; fits a 15 GB host with room to spare).
experiments:
	go run ./cmd/fftbench -all | tee experiments_full.txt

quick-experiments:
	go run ./cmd/fftbench -all -quick
