# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: all build vet test race bench bench-kernel bench-scale smoke-serve chaos examples experiments quick-experiments

all: build vet test

build:
	go build ./...

# go vet plus the formatting gate: gofmt -l must print nothing. internal/fft
# has amd64 assembly kernels (vet's asmdecl checks their frames and argument
# offsets), so the portable build — the Go loops and the radix4_other.go stubs
# of every routine's wrapper — is cross-compiled and vetted for arm64 too;
# neither needs the network. Used by CI.
vet:
	go vet ./...
	GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/fft/
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . lists:"; gofmt -l .; exit 1; }

test:
	go test ./...

# The race detector gates every package that shares state across goroutines:
# the simulator runs ranks as goroutines and its rendezvous leader writes every
# member's receive list; fft shares kernel plans and a worker pool across them;
# core ships pool buffers between ranks with move semantics, lends arrays as
# views, recycles send and receive lists through a process-wide pool and
# shares each reshape's exchange patterns between every rank of the world;
# trace records from every rank into per-rank shards; tuning builds and times
# plans on every rank of a world (its tests gather results); the serving layer
# multiplexes many submitters onto shared engines through the scheduler, the
# plan cache and the cancellation paths. The list and round-scratch reuse
# tests and the exchange-pattern tests run again at 1, 2 and 8 processors, so
# the lifetimes and the shared patterns are checked under different schedules.
# Used by CI.
race:
	go test -race ./internal/mpisim/ ./internal/core/ ./internal/fft/ ./internal/trace/ ./internal/tuning/ ./heffte/serve/ ./internal/sched/
	go test -race -count=1 -cpu 1,2,8 -run 'TestRecycledListsMatchFresh|TestRendezvousReleasesRound|TestPatternMatchesBlocks|TestBareExchangesMoveNoBlockLists|TestPatternPricesLikeBlocks' ./internal/core/ ./internal/mpisim/

# The repository benchmark (BENCHMARK.json): four workloads, end-to-end
# metrics at reference host speed plus per-layer rows; see benchmark/README.md.
bench:
	go run ./benchmark

# Developer tool: single-line kernel ladder, the twiddled radix-4 passes along
# a line and across the rows of one group of adjacent lines (each: Go
# reference against what the machine dispatches to), strided batches (planes
# and the two strided passes of a pencil, ns/line) and contiguous ones, the
# blocked reorder transposes, pack/unpack in their three
# run-coalescing regimes (row, plane, whole block), and over the same regimes
# one box-to-box CopyBox against Pack + Unpack through a buffer.
bench-kernel:
	go test -run '^$$' -bench 'BenchmarkKernel|BenchmarkRadix4Pass|BenchmarkRadix4Rows|BenchmarkStridedBatch|BenchmarkContigBatch|BenchmarkFFTBluestein' -benchmem ./internal/fft/
	go test -run '^$$' -bench 'BenchmarkPackBlocked|BenchmarkPack$$|BenchmarkUnpack$$|BenchmarkCopyBox$$' -benchmem ./internal/tensor/

# Developer tool: the paper-scale proxy of the repository benchmark on its
# own: 768 phantom ranks, 512³ — rendezvous and pricing from each reshape's
# exchange pattern, no payload and no block lists. Then the plan layer
# without the harness: one Forward+Inverse per op on the same shape
# (BenchmarkPhantomTransform), and the plan-build geometry alone, the reshape
# tables of the Table III pencil chain at 768 and 3072 ranks and the
# validation of the 3072-rank brick list.
bench-scale:
	go run ./benchmark -workload scale512_r768_phantom -seconds 20 -trace 0
	go test -run '^$$' -bench 'BenchmarkPhantomTransform|BenchmarkReshapeTable' -benchmem ./internal/core/

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
# sweeps (~40 s on 2 cores; fits a 15 GB host with room to spare).
experiments:
	go run ./cmd/fftbench -all | tee experiments_full.txt

# The reduced-size run of every experiment, rewriting the golden text that
# TestQuickGolden compares against (its elastic block is not compared).
quick-experiments:
	go run ./cmd/fftbench -all -quick | tee internal/bench/testdata/quick.txt
