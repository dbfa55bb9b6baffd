# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build vet test race checkptr bench bench-kernel bench-scale smoke-serve chaos examples experiments

all: build vet test

build:
	go build ./...

# go vet plus the formatting gate: gofmt -l must print nothing. internal/fft
# (the FFT kernels) and internal/tensor (the strided copy kernel) have amd64
# assembly (vet's asmdecl checks their frames and argument offsets), so the
# portable build — the Go loops and the radix4_other.go / copy_other.go stubs
# — is cross-compiled and vetted for arm64 too; neither needs the network.
# Used by CI.
vet:
	go vet ./...
	GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/fft/ ./internal/tensor/
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }

test:
	go test ./...

# The race detector gates every package that shares state across goroutines:
# the simulator runs ranks as goroutines and its rendezvous leader writes every
# member's receive list; fft plans are shared across rank goroutines;
# core ships pool buffers between ranks with move semantics, lends arrays as
# views, recycles send and receive lists through a process-wide pool and
# shares each reshape's exchange patterns between every rank of the world;
# tensor's copies read the arrays other ranks lend (race builds take its Go
# copy loop, not the assembly, so the detector sees every load and store);
# trace records from every rank into per-rank shards; tuning builds and times
# plans on every rank of a world (its tests gather results); the serving layer
# multiplexes many submitters onto shared engines through the scheduler, the
# plan cache and the cancellation paths. The list and round-scratch reuse
# tests and the exchange-pattern tests run again at 1, 2 and 8 processors, so
# the lifetimes and the shared patterns are checked under different schedules,
# and so do the tests that gate the rendezvous wake protocol under aborts: a
# member whose round was computed leaves with its output even if the world
# fails meanwhile (TestCompletedRoundSurvivesAbort, TestForwardCtxCancellation),
# and a leader's wake never blocks on a slot an abort filled
# (TestRepeatedAbortsNeverBlockALeader), and so does the test that each
# communicator replays only the schedules compiled for it: two communicators
# sharing one exchange pattern, interleaved, on GPU-aware and staged worlds
# (TestCompiledScheduleCacheIdentity). Used by CI.
race:
	go test -race ./internal/mpisim/ ./internal/core/ ./internal/fft/ ./internal/tensor/ ./internal/trace/ ./internal/tuning/ ./heffte/serve/ ./internal/sched/
	go test -race -count=1 -cpu 1,2,8 -run 'TestRecycledListsMatchFresh|TestRendezvousReleasesRound|TestPatternMatchesBlocks|TestBareExchangesMoveNoBlockLists|TestPatternPricesLikeBlocks|TestCompletedRoundSurvivesAbort|TestRepeatedAbortsNeverBlockALeader|TestForwardCtxCancellation|TestCompiledScheduleCacheIdentity' ./internal/core/ ./internal/mpisim/

# checkptr instruments every unsafe.Pointer conversion and the arithmetic on
# it. Race builds compile the Go copy and FFT loops instead of the amd64
# kernels, so only this run checks the pointer arithmetic that feeds them in
# internal/tensor and internal/fft. Used by CI.
checkptr:
	go test -count=1 -gcflags=all=-d=checkptr ./internal/tensor/ ./internal/fft/

# The repository benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics at reference host speed plus per-layer rows; see benchmark/README.md.
bench:
	go run ./benchmark

# Developer tool: single-line kernel ladder, the twiddled radix-4 passes along
# a line and across the rows of one group of adjacent lines (each: Go
# reference against what the machine dispatches to), strided batches (planes,
# the two strided passes of a pencil and of serve_mixed_r8's 32-point rank
# pencils 32x16x8 and 16x32x8, ns/line) and contiguous ones (the row pass of a
# plane, the z-pencil of dense128_r64, a 64-point rank share of
# serve_mixed_r8 and its 32-point z-pencil 16x8x32, ns/line; all run across
# rows), real batches (BenchmarkRealBatch: an altpaths64_r24 rank's 64-point
# z-pencil of 176 lines and 256 lines of 128, forward and inverse, ns/line;
# both run across rows), the
# blocked reorder transposes, pack/unpack in their three
# run-coalescing regimes (row, plane, whole block), over the same regimes
# one box-to-box CopyBox against Pack + Unpack through a buffer, and CopyBox
# on the short runs altpaths64_r24 moves on every transform (complex128 runs
# of 5 and 11 elements from its pencil reshapes, float64 runs of 16 from its
# real plan's unpacks, and the 5-element box again in float64), and CopyBox
# cold (cold/…): dense128_r64's five reshape shapes, each copy into and out of
# the next of 64 pairs of 512 KB arrays, so no block is in L2.
bench-kernel:
	go test -run '^$$' -bench 'BenchmarkKernel|BenchmarkRadix4Pass|BenchmarkRadix4Rows|BenchmarkStridedBatch|BenchmarkContigBatch|BenchmarkRealBatch|BenchmarkFFTBluestein' -benchmem ./internal/fft/
	go test -run '^$$' -bench 'BenchmarkPackBlocked|BenchmarkPack$$|BenchmarkUnpack$$|BenchmarkCopyBox$$' -benchmem ./internal/tensor/

# Developer tool: the paper-scale proxy of the repository benchmark on its
# own: 768 phantom ranks, 512³ — rendezvous and pricing from each reshape's
# exchange pattern, no payload and no block lists. Then the plan layer
# without the harness: one Forward+Inverse per op on the same shape
# (BenchmarkPhantomTransform), and the plan-build geometry alone, the reshape
# tables of the Table III pencil chain at 768 and 3072 ranks and the
# validation of the 3072-rank brick list. Last, the pricing of that chain's
# exchanges under every schedule, compile (once per pattern) and run (once
# per call, allocation-free) timed apart (BenchmarkPriceScheduled).
bench-scale:
	go run ./benchmark -workload scale512_r768_phantom -seconds 20 -trace 0
	go test -run '^$$' -bench 'BenchmarkPhantomTransform|BenchmarkReshapeTable' -benchmem ./internal/core/
	go test -run '^$$' -bench 'BenchmarkPriceScheduled' -benchmem ./internal/mpisim/

# Fast self-checking pass over the serving layer (used by CI).
smoke-serve:
	go run ./cmd/fftserve -smoke

# The chaos scenarios of cmd/fftserve at their CI seeds, under the race
# detector: verified load against engines with injected faults. Every run
# asserts zero lost or wrong responses and that each recovery mechanism of its
# scenario actually fired — faults: retry, batch split, engine eviction,
# breaker trip, degraded path; sdc: retransmit, phase re-execution, quarantine
# rebuild, typed budget exhaustion; elastic: shrink + resume, restart
# fallback, capacity ledger. Same seed, same fault schedule — failures
# replay. The same rows run without the race detector in `go test`
# (TestChaosScenarios). Used by CI.
chaos:
	go run -race ./cmd/fftserve -chaos faults -smoke -seed 7
	go run -race ./cmd/fftserve -chaos sdc -smoke -seed 3
	go run -race ./cmd/fftserve -chaos sdc -smoke -seed 11
	go run -race ./cmd/fftserve -chaos sdc -smoke -seed 23
	go run -race ./cmd/fftserve -chaos elastic -smoke -seed 5

examples:
	go run ./examples/quickstart
	go run ./examples/real_transform
	go run ./examples/turbulence
	go run ./examples/tuning
	go run ./examples/lammps_kspace
	go run ./examples/serving

# Paper-scale reproduction of every table and figure, up to the 3072-GPU
# sweeps (~15 s on 2 cores; fits a 15 GB host with room to spare). It rewrites
# experiments_full.txt, which TestExperimentsGolden (internal/bench) compares
# against outside the elastic section; run it only for an intended change and
# keep the committed elastic block (its abort cascade after a kill is not
# run-to-run deterministic).
experiments:
	go run ./cmd/fftbench -all | tee experiments_full.txt
