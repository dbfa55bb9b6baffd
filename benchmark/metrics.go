package main

import (
	"math"
	"sort"
)

// Every number this benchmark prints states its clock:
//
//   - host: wall or CPU time of this process — noisy, so bounded;
//   - virtual: simulated seconds on the modelled machine — deterministic, so
//     compared bit-for-bit (a host-only optimisation must leave every virtual
//     number identical, a model change must move only virtual ones);
//   - count: an exact count made by the harness or read from the program;
//   - computed: derived from geometry (box volumes, 5·n·log2 n), not measured.
const (
	clockHost     = "host"
	clockVirtual  = "virtual"
	clockCount    = "count"
	clockComputed = "computed"
)

// metricDef is one row of the schema. The schema is fixed by the PR that
// added the benchmark: later PRs add rows, never rename.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer rows).
	Bound float64
	// Exact rows repeat bit-for-bit between runs of one tree; -compare
	// requires them to match exactly instead of applying a noise band.
	Exact bool
	// Moves names the end-to-end metric this layer metric should move, and on
	// which workload — the prediction written down before measuring.
	Moves string
}

// endToEnd are the metrics a user of the system sees. Each applies to all
// four workloads and is never 0. An "op" is one transform (workloads 1–3) or
// one served request — which is one transform too — on serve_mixed_r8. The
// four host times are reported at reference host speed (see ref.go).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Clock: clockHost, Better: "lower", Bound: 0.25},
	{Name: "transform_host_ms", Unit: "ms", Clock: clockHost, Better: "lower", Bound: 0.25},
	{Name: "transforms_per_s", Unit: "1/s", Clock: clockHost, Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Clock: clockHost, Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Clock: clockHost, Better: "lower", Bound: 0.15},
}

// perLayer are the informational rows of the traced run: the exact
// (virtual/count) end-to-end companions first, then one block per module.
var perLayer = []metricDef{
	{Name: "virtual_us_per_transform", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "the product: moves only when the cost model or the schedule changes"},
	{Name: "max_rel_err", Unit: "ratio", Clock: clockCount, Better: "lower", Moves: "gate: must stay <= 1e-10"},

	// The host-speed probe and the raw (as measured) host numbers of the
	// traced run's untraced pass, which the per-layer host rows are shares of.
	{Name: "host.ref_kernel_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "the harness's fixed probe kernel: how fast the host ran during this run"},
	{Name: "host.speed_factor", Unit: "ratio", Clock: clockHost, Better: "higher", Moves: "2.5 ms over host.ref_kernel_ms: what the bounded end-to-end host metrics are multiplied by"},
	{Name: "host.raw_transform_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transform_host_ms before the speed factor"},
	{Name: "host.raw_cpu_ms_per_op", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "cpu_ms_per_op before the speed factor; what fft/tensor/mpisim/glue shares add up to"},

	// internal/fft — kernel replay, single-threaded, all ranks' worth of one transform.
	{Name: "fft.lines", Unit: "count", Clock: clockCount, Better: "lower", Exact: true, Moves: "work count behind fft.busy_ms; 0 on scale512_r768_phantom"},
	{Name: "fft.flops", Unit: "count", Clock: clockComputed, Better: "lower", Exact: true, Moves: "5·n·log2(n) per line; denominator of fft.gflops"},
	{Name: "fft.busy_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transform_host_ms, cpu_ms_per_op on dense128_r64 and serve_mixed_r8 (~half), altpaths64_r24 (~a third)"},
	{Name: "fft.gflops", Unit: "GFLOP/s", Clock: clockHost, Better: "higher", Moves: "same as fft.busy_ms"},
	{Name: "fft.contig_ns_per_line", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "fft.busy_ms (axis-2 stages)"},
	{Name: "fft.strided_ns_per_line", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "fft.busy_ms (axis-0/1 stages)"},
	{Name: "fft.real_ns_per_line", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "fft.busy_ms on altpaths64_r24 (r2c/c2r stage)"},
	{Name: "fft.serial3d_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "baseline: plain single-threaded fft.Transform3D of the same grid"},

	// internal/tensor — pack/unpack replay over the same pair boxes.
	{Name: "tensor.pack_bytes", Unit: "bytes", Clock: clockComputed, Better: "lower", Exact: true, Moves: "work count behind tensor.pack_busy_ms; 0 on scale512_r768_phantom"},
	{Name: "tensor.unpack_bytes", Unit: "bytes", Clock: clockComputed, Better: "lower", Exact: true, Moves: "work count behind tensor.unpack_busy_ms"},
	{Name: "tensor.pack_busy_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transform_host_ms on dense128_r64, altpaths64_r24, serve_mixed_r8"},
	{Name: "tensor.unpack_busy_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transform_host_ms on dense128_r64, altpaths64_r24, serve_mixed_r8"},
	{Name: "tensor.pack_gbps", Unit: "GB/s", Clock: clockHost, Better: "higher", Moves: "same as tensor.pack_busy_ms (arrays are cache-resident)"},
	{Name: "tensor.unpack_gbps", Unit: "GB/s", Clock: clockHost, Better: "higher", Moves: "same as tensor.unpack_busy_ms (arrays are cache-resident)"},
	{Name: "tensor.decompose_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: "setup_s on scale512_r768_phantom (every rank pays one per stage)"},

	// internal/mpisim — bare exchanges on a same-size world, phantom buffers.
	{Name: "mpisim.exchanges", Unit: "count", Clock: clockCount, Better: "lower", Exact: true, Moves: "collective or P2P rounds entered per transform, summed over ranks"},
	{Name: "mpisim.messages", Unit: "count", Clock: clockCount, Better: "lower", Exact: true, Moves: "non-empty off-rank blocks per transform, summed over ranks"},
	{Name: "mpisim.bytes", Unit: "bytes", Clock: clockComputed, Better: "lower", Exact: true, Moves: "off-rank payload bytes per transform, summed over ranks"},
	{Name: "mpisim.exchange_host_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: "transform_host_ms, cpu_ms_per_op on scale512_r768_phantom (~60 %); <= 2 % on dense128_r64"},
	{Name: "mpisim.host_ns_per_message", Unit: "ns", Clock: clockHost, Better: "lower", Moves: "same as mpisim.exchange_host_us"},
	{Name: "mpisim.exchange_alloc_kb", Unit: "KB", Clock: clockHost, Better: "lower", Moves: "core.gc_cpu_pct, then cpu_ms_per_op on scale512_r768_phantom"},
	{Name: "mpisim.exchange_virtual_us", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "virtual_us_per_transform everywhere"},
	{Name: "mpisim.barrier_host_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: "harness overhead inside transform_host_ms"},
	{Name: "mpisim.world_new_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "setup_s"},
	{Name: "mpisim.p2p_round_host_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: "transform_host_ms on altpaths64_r24 (RealPlan half)"},
	{Name: "mpisim.replay_cpu_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "cpu_ms_per_op on scale512_r768_phantom; subtracted in core.glue_cpu_ms"},

	// internal/core — plan build, executor self time, allocation, tails.
	{Name: "core.plan_build_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "setup_s on scale512_r768_phantom"},
	{Name: "core.plan_alloc_mb", Unit: "MB", Clock: clockHost, Better: "lower", Moves: "setup_s on scale512_r768_phantom"},
	{Name: "core.plan_live_mb", Unit: "MB", Clock: clockHost, Better: "lower", Moves: "live_heap_mb on scale512_r768_phantom"},
	{Name: "core.first_pair_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "setup_s (lazy init paid by the first Forward+Inverse)"},
	{Name: "core.allocs_per_transform", Unit: "count", Clock: clockHost, Better: "lower", Moves: "core.gc_cpu_pct, then transform_host_ms on scale512_r768_phantom and transforms_per_s on serve_mixed_r8"},
	{Name: "core.alloc_mb_per_transform", Unit: "MB", Clock: clockHost, Better: "lower", Moves: "same as core.allocs_per_transform"},
	{Name: "core.glue_cpu_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "cpu_ms_per_op: the executor's self time as seen from outside"},
	{Name: "core.gc_cpu_pct", Unit: "%", Clock: clockHost, Better: "lower", Moves: "cpu_ms_per_op on scale512_r768_phantom"},
	{Name: "core.transform_host_tail_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transforms_per_s (the tail the median hides)"},
	{Name: "core.tail_percentile", Unit: "%", Clock: clockCount, Better: "higher", Moves: "which percentile core.transform_host_tail_ms is"},
	{Name: "core.samples", Unit: "count", Clock: clockCount, Better: "higher", Moves: "sample count behind transform_host_ms in the traced run"},
	{Name: "core.cpu_vs_serial", Unit: "ratio", Clock: clockHost, Better: "lower", Moves: "cpu_ms_per_op over fft.serial3d_ms: cost of distribution"},
	{Name: "core.pipelined_ms_per_cycle", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transform_host_ms on altpaths64_r24 (executePipelined half)"},
	{Name: "core.real_ms_per_cycle", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "transform_host_ms on altpaths64_r24 (RealPlan half)"},
	{Name: "core.peak_rss_mb", Unit: "MB", Clock: clockHost, Better: "lower", Moves: "informational: GC-timing dependent"},

	// internal/sched — the coalescer alone, no-op runner.
	{Name: "sched.overhead_us", Unit: "us", Clock: clockHost, Better: "lower", Moves: "transform_host_ms on serve_mixed_r8"},
	{Name: "sched.mean_batch", Unit: "count", Clock: clockHost, Better: "higher", Moves: "transforms_per_s on serve_mixed_r8"},
	{Name: "sched.batches", Unit: "count", Clock: clockHost, Better: "lower", Moves: "transforms_per_s on serve_mixed_r8"},
	{Name: "sched.rejected", Unit: "count", Clock: clockCount, Better: "lower", Moves: "failed ops"},
	{Name: "sched.deadline_exceeded", Unit: "count", Clock: clockCount, Better: "lower", Moves: "failed ops"},

	// heffte/serve — scatter/gather, engine cache, latency tail.
	{Name: "serve.scatter_gather_us_32", Unit: "us", Clock: clockHost, Better: "lower", Moves: "transform_host_ms, cpu_ms_per_op on serve_mixed_r8"},
	{Name: "serve.scatter_gather_us_64", Unit: "us", Clock: clockHost, Better: "lower", Moves: "transform_host_ms, cpu_ms_per_op on serve_mixed_r8"},
	{Name: "serve.engine_build_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "setup_s on serve_mixed_r8"},
	{Name: "serve.cache_hits", Unit: "count", Clock: clockHost, Better: "higher", Moves: "transforms_per_s on serve_mixed_r8"},
	{Name: "serve.cache_misses", Unit: "count", Clock: clockCount, Better: "lower", Moves: "setup_s on serve_mixed_r8 (one per shape)"},
	{Name: "serve.virtual_ms_per_req", Unit: "virtual_ms", Clock: clockVirtual, Better: "lower", Moves: "virtual cost of one served request (varies with sched.mean_batch)"},
	{Name: "serve.request_p90_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "closed-loop request latency tail"},
	{Name: "serve.request_p99_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "informational"},
	{Name: "serve.request_tail_ms", Unit: "ms", Clock: clockHost, Better: "lower", Moves: "informational: worst request"},
	{Name: "serve.recoveries", Unit: "count", Clock: clockCount, Better: "lower", Moves: "failed ops; expected 0"},

	// internal/model + virtual breakdown, from the world's Tracer.
	{Name: "virtual.comm_us", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "virtual_us_per_transform"},
	{Name: "virtual.fft_us", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "virtual_us_per_transform"},
	{Name: "virtual.pack_us", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "virtual_us_per_transform"},
	{Name: "virtual.unpack_us", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "virtual_us_per_transform"},
	{Name: "virtual.other_us", Unit: "virtual_us", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "virtual_us_per_transform"},
	{Name: "virtual.comm_fraction", Unit: "ratio", Clock: clockVirtual, Better: "higher", Exact: true, Moves: "paper Figs. 6-7: stays > 0.9 on scale512_r768_phantom"},
	{Name: "virtual.rank_skew_pct", Unit: "%", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "slowest rank sets virtual_us_per_transform"},
	{Name: "model.pencil_residual_pct", Unit: "%", Clock: clockVirtual, Better: "lower", Exact: true, Moves: "closed-form eq. 3 vs simulated comm time"},
	{Name: "trace.events_per_transform", Unit: "count", Clock: clockCount, Better: "lower", Exact: true, Moves: "trace.overhead_pct"},
	{Name: "trace.overhead_pct", Unit: "%", Clock: clockHost, Better: "lower", Moves: "traced over untraced transform_host_ms"},
}

// relErrLimit gates every run: a result further than this from the input
// (round trip) or from the reference DFT fails the run.
const relErrLimit = 1e-10

// median returns the middle value of xs (mean of the middle two), 0 if empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, and the value there: with n samples that is the
// (n-10)'th order statistic. Fewer than 20 samples report the median.
func tail(xs []float64) (percentile, value float64) {
	n := len(xs)
	if n < 20 {
		return 50, median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// iqrShare is the run-to-run spread the acceptance rule uses: the distance
// between the first and third quartile as a share of the median, with the
// quartiles of Python's statistics.quantiles(values, n=4) (exclusive method).
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(m)
}
