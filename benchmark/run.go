package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/model"
	"repro/internal/trace"
)

// timeSetups times fresh set-ups: one that is discarded (cold heap, page
// faults, the CPU's ramp after idle), then four, then more while they are
// cheap — until 1.5 s are spent or 14 are taken. The timed pass adds one
// more; setup_s is the median of them all, each at reference host speed.
func timeSetups(quick bool, setup func() (sec, refSec float64, err error)) ([]float64, error) {
	atLeast, atMost := 5, 15
	if quick {
		atLeast, atMost = 2, 2
	}
	var out []float64
	spent := 0.0
	for i := 0; i < atLeast || (i < atMost && spent < 1.5); i++ {
		sec, ref, err := setup()
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, sec*speedFactor(ref))
			spent += sec
		}
		collect()
	}
	return out, nil
}

func runWorkload(w workload, o options) (*runResult, error) {
	if w.world != nil {
		ws := w.world(o.quick)
		if o.trace {
			return tracedWorld(w, ws, o)
		}
		return untracedWorld(ws, o)
	}
	ss := w.serve(o.quick)
	if o.trace {
		return tracedServe(w, ss, o)
	}
	return untracedServe(ss, o)
}

// collect runs the garbage of a finished pass out of the next one's timers.
func collect() { runtime.GC() }

// gate folds the two correctness checks into a result: the round trip of the
// timed run and the forward result of a 16³ run of the same configuration
// against internal/dft. A result beyond relErrLimit fails every operation it
// vouches for.
func gate(res *runResult, roundTrip float64, refCheck func(int64) (float64, error), seed int64) (float64, error) {
	worst := roundTrip
	if refCheck != nil {
		ref, err := refCheck(seed)
		if err != nil {
			return 0, err
		}
		worst = max(worst, ref)
	}
	// NaN compares false with everything: test for "within the limit".
	res.correct = res.failed == 0 && worst <= relErrLimit
	if !res.correct && res.failed == 0 {
		res.failed = res.attempted
	}
	return worst, nil
}

func untracedWorld(ws *worldSpec, o options) (*runResult, error) {
	setups, err := timeSetups(o.quick, func() (float64, float64, error) {
		r, err := ws.run(passOpts{seed: o.seed})
		if err != nil {
			return 0, 0, err
		}
		return r.setup.total, r.setup.refSec, nil
	})
	if err != nil {
		return nil, err
	}
	r, err := ws.run(passOpts{seed: o.seed, iters: ws.fixedIters, seconds: o.seconds})
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.setup.total*speedFactor(r.setup.refSec))

	res := &runResult{attempted: r.transforms()}
	if _, err := gate(res, r.relErr, ws.refCheck, o.seed); err != nil {
		return nil, err
	}
	n := float64(r.transforms())
	wall, cpu := atRefSpeed(r.iterSec, r.refSec), atRefSpeed(r.iterCPU, r.refSec)
	// The host disturbs one way only — it slows iterations down — so the
	// lower quartile of the iterations repeats about twice as well from run
	// to run as their median (measured: 2–3 % against 4–7 %). The tail stays
	// in transforms_per_s, which counts every iteration.
	per := float64(r.perIter)
	res.metrics = map[string]value{
		"setup_s":           {median(setups), len(setups)},
		"transform_host_ms": {1e3 * quantile(wall, 0.25) / per, len(wall)},
		"transforms_per_s":  {n / sum(wall), r.transforms()},
		"cpu_ms_per_op":     {1e3 * quantile(cpu, 0.25) / per, len(cpu)},
		"live_heap_mb":      {r.liveHeapMB, 1},
	}
	res.notes = append(res.notes, rawNote(1e3*median(r.iterSec)/float64(r.perIter), n/sum(r.iterSec), 1e3*sum(r.iterCPU)/n, r.refSec))
	return res, nil
}

func untracedServe(ss *serveSpec, o options) (*runResult, error) {
	setups, err := timeSetups(o.quick, func() (float64, float64, error) {
		r, err := ss.run(servePassOpts{seed: o.seed})
		if err != nil {
			return 0, 0, err
		}
		return r.setupSec, r.setupRefSec, nil
	})
	if err != nil {
		return nil, err
	}
	r, err := ss.run(servePassOpts{seed: o.seed, seconds: o.seconds})
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.setupSec*speedFactor(r.setupRefSec))

	res := &runResult{attempted: r.attempted(), failed: r.failed}
	if _, err := gate(res, r.relErr, ss.refCheck, o.seed); err != nil {
		return nil, err
	}
	n := float64(len(r.latencySec))
	wall, cpu := atRefSpeed(r.sliceSec, r.refSec), atRefSpeed(r.sliceCPU, r.refSec)
	res.metrics = map[string]value{
		"setup_s":           {median(setups), len(setups)},
		"transform_host_ms": {1e3 * median(r.latencyAtRefSpeed(wall)), len(r.latencySec)},
		"transforms_per_s":  {n / sum(wall), len(r.latencySec)},
		"cpu_ms_per_op":     {1e3 * sum(cpu) / n, len(r.latencySec)},
		"live_heap_mb":      {r.liveHeapMB, 1},
	}
	res.notes = append(res.notes, rawNote(1e3*median(r.latencySec), n/sum(r.sliceSec), 1e3*sum(r.sliceCPU)/n, r.refSec))
	return res, nil
}

// rawNote states what the host metrics read as measured, before they were
// brought to reference host speed, and what the probe read meanwhile.
func rawNote(transformMs, perSec, cpuMs float64, probe []float64) string {
	return fmt.Sprintf("raw (as measured): transform_host_ms=%.6g transforms_per_s=%.6g cpu_ms_per_op=%.6g; probe %.4g ms (%.4g–%.4g), reference %.4g ms",
		transformMs, perSec, cpuMs, 1e3*median(probe), 1e3*quantile(probe, 0), 1e3*quantile(probe, 1), 1e3*refNominalSec)
}

// zeroLayer returns every per-layer metric at 0: a metric that does not
// apply to a workload stays 0 there.
func zeroLayer() map[string]value {
	m := map[string]value{}
	for _, d := range perLayer {
		m[d.Name] = value{0, 0}
	}
	return m
}

// tracedWorld is the traced run of a world workload: a memory-probing set-up
// (which also yields the replay geometry), an untraced pass and a traced pass
// of the same fixed length — their virtual clocks must agree bit for bit and
// their host medians give the tracing overhead — then the layer replays.
func tracedWorld(w workload, ws *worldSpec, o options) (*runResult, error) {
	rec := newRecorder(w.name)
	probe, err := ws.run(passOpts{seed: o.seed, memProbe: true})
	if err != nil {
		return nil, err
	}
	collect()
	a, err := ws.run(passOpts{seed: o.seed, iters: ws.fixedIters, describe: true})
	if err != nil {
		return nil, err
	}
	collect()
	tr := trace.New()
	b, err := ws.run(passOpts{seed: o.seed, iters: ws.fixedIters, tracer: tr, rec: rec})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	collect()

	res := &runResult{attempted: a.transforms() + b.transforms()}
	if a.virtualSec != b.virtualSec {
		return nil, fmt.Errorf("virtual clock differs between the untraced (%v s) and traced (%v s) pass", a.virtualSec, b.virtualSec)
	}
	worst, err := gate(res, max(a.relErr, b.relErr), ws.refCheck, o.seed)
	if err != nil {
		return nil, err
	}

	m := zeroLayer()
	n := float64(a.transforms())
	perOp := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 1e3 * x / float64(a.perIter)
		}
		return out
	}
	cpuMs := 1e3 * sum(a.iterCPU) / n
	m["virtual_us_per_transform"] = value{1e6 * a.virtualSec, ws.fixedIters * a.perIter}
	m["max_rel_err"] = value{worst, 1}
	hostRows(m, a.refSec, median(perOp(a.iterSec)), cpuMs, len(a.iterSec))

	setups := []setupTimes{a.setup, b.setup}
	pick := func(f func(setupTimes) float64) value {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = 1e3 * f(s)
		}
		return value{median(xs), len(xs)}
	}
	m["mpisim.world_new_ms"] = pick(func(s setupTimes) float64 { return s.worldNew })
	m["core.plan_build_ms"] = pick(func(s setupTimes) float64 { return s.planBuild })
	m["core.first_pair_ms"] = pick(func(s setupTimes) float64 { return s.firstPair })
	m["core.plan_alloc_mb"] = value{probe.planAllocMB, 1}
	m["core.plan_live_mb"] = value{probe.planLiveMB, 1}
	coreRows(m, a.mallocs, a.allocBytes, a.transforms(), a.gcCPUSec/sum(a.iterCPU), perOp(a.iterSec), peak)
	for si, name := range a.stepMetric {
		if name != "" {
			m[name] = value{1e3 * median(a.stepSec[si]), len(a.stepSec[si])}
		}
	}

	bd := b.breakdown
	m["virtual.comm_us"] = value{1e6 * bd["comm"], b.transforms()}
	m["virtual.fft_us"] = value{1e6 * bd["fft"], b.transforms()}
	m["virtual.pack_us"] = value{1e6 * bd["pack"], b.transforms()}
	m["virtual.unpack_us"] = value{1e6 * bd["unpack"], b.transforms()}
	m["virtual.other_us"] = value{1e6 * bd["other"], b.transforms()}
	m["virtual.comm_fraction"] = value{bd["comm"] / (bd["comm"] + bd["fft"] + bd["pack"] + bd["unpack"] + bd["other"]), b.transforms()}
	m["virtual.rank_skew_pct"] = value{b.skewPct, ws.ranks}
	m["trace.events_per_transform"] = value{b.events, b.transforms()}
	// The two passes run one after the other: compare them at reference host speed.
	m["trace.overhead_pct"] = value{100 * (median(atRefSpeed(b.iterSec, b.refSec))/median(atRefSpeed(a.iterSec, a.refSec)) - 1), len(b.iterSec)}
	pipe := a.pipes[0]
	vol := pipe.global[0] * pipe.global[1] * pipe.global[2]
	eq3 := model.PencilTime(vol, pipe.pq[0], pipe.pq[1], model.SummitParams())
	m["model.pencil_residual_pct"] = value{100 * math.Abs(eq3-bd["comm"]) / bd["comm"], 1}

	if err := replayLayers(m, res, a.pipes, ws.ranks, o.quick, cpuMs, rec); err != nil {
		return nil, err
	}
	res.metrics = m
	return res, finishTrace(rec, o)
}

func tracedServe(w workload, ss *serveSpec, o options) (*runResult, error) {
	rec := newRecorder(w.name)
	share := o.seconds * 0.3
	a, err := ss.run(servePassOpts{seed: o.seed, seconds: share})
	if err != nil {
		return nil, err
	}
	collect()
	b, err := ss.run(servePassOpts{seed: o.seed, seconds: share, rec: rec})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	collect()

	res := &runResult{attempted: a.attempted() + b.attempted(), failed: a.failed + b.failed}
	worst, err := gate(res, max(a.relErr, b.relErr), ss.refCheck, o.seed)
	if err != nil {
		return nil, err
	}

	m := zeroLayer()
	n := len(a.latencySec)
	ms := make([]float64, n)
	for i, l := range a.latencySec {
		ms[i] = 1e3 * l
	}
	cpuMs := 1e3 * sum(a.sliceCPU) / float64(n)
	m["max_rel_err"] = value{worst, 1}
	hostRows(m, a.refSec, median(ms), cpuMs, n)
	coreRows(m, a.mallocs, a.allocBytes, n, a.gcCPUSec/sum(a.sliceCPU), ms, peak)

	t := a.stats.Scheduler.Total
	m["sched.overhead_us"] = value{1e6 * ss.schedOverheadSec(200), 200 * ss.clients()}
	m["sched.mean_batch"] = value{t.MeanBatch(), int(t.Batches)}
	m["sched.batches"] = value{float64(t.Batches), 1}
	m["sched.rejected"] = value{float64(t.Rejected), 1}
	m["sched.deadline_exceeded"] = value{float64(t.DeadlineExceeded), 1}

	sgReps := 50
	if len(ss.shapes) == 2 { // the schema names the two shapes of serve_mixed_r8
		m["serve.scatter_gather_us_32"] = value{1e6 * ss.scatterGatherSec(ss.shapes[0], sgReps), sgReps}
		m["serve.scatter_gather_us_64"] = value{1e6 * ss.scatterGatherSec(ss.shapes[1], sgReps), sgReps}
	}
	m["serve.engine_build_ms"] = value{1e3 * median([]float64{a.engineBuildSec, b.engineBuildSec}), 2}
	m["serve.cache_hits"] = value{float64(a.stats.Cache.Hits), 1}
	m["serve.cache_misses"] = value{float64(a.stats.Cache.Misses), 1}
	m["serve.virtual_ms_per_req"] = value{1e3 * a.virtualPerOp, n}
	m["serve.request_p90_ms"] = value{quantile(ms, 0.90), n}
	m["serve.request_p99_ms"] = value{quantile(ms, 0.99), n}
	m["serve.request_tail_ms"] = value{quantile(ms, 1), n}
	r := a.stats.Recovery
	m["serve.recoveries"] = value{float64(r.Retries + r.BatchSplits + r.FaultEvictions + r.DegradedRequests + r.BreakerTrips + r.Resumed + r.Restarted), 1}
	atRef := func(r *serveResult) float64 { return median(r.latencyAtRefSpeed(atRefSpeed(r.sliceSec, r.refSec))) }
	m["trace.overhead_pct"] = value{100 * (atRef(b)/atRef(a) - 1), len(b.latencySec)}

	pipes, err := ss.pipelines()
	if err != nil {
		return nil, err
	}
	if err := replayLayers(m, res, pipes, ss.cfg.Ranks, o.quick, cpuMs, rec); err != nil {
		return nil, err
	}
	res.metrics = m
	return res, finishTrace(rec, o)
}

// coreRows fills the allocation, GC, tail and peak-RSS rows from the untraced
// pass of a traced run: ops timed operations whose host times are opMs.
func coreRows(m map[string]value, mallocs, allocBytes float64, ops int, gcShare float64, opMs []float64, peakMB float64) {
	m["core.allocs_per_transform"] = value{mallocs / float64(ops), ops}
	m["core.alloc_mb_per_transform"] = value{allocBytes / mb / float64(ops), ops}
	m["core.gc_cpu_pct"] = value{100 * gcShare, 1}
	pct, tailMs := tail(opMs)
	m["core.transform_host_tail_ms"] = value{tailMs, len(opMs)}
	m["core.tail_percentile"] = value{pct, len(opMs)}
	m["core.samples"] = value{float64(len(opMs)), 1}
	m["core.peak_rss_mb"] = value{peakMB, 1}
}

// hostRows reports the host-speed probe of the traced run's untraced pass and
// that pass's raw host numbers: every per-layer host row is raw, as measured,
// and these are what they are shares of.
func hostRows(m map[string]value, refSec []float64, transformMs, cpuMs float64, samples int) {
	ref := median(refSec)
	m["host.ref_kernel_ms"] = value{1e3 * ref, len(refSec)}
	m["host.speed_factor"] = value{speedFactor(ref), len(refSec)}
	m["host.raw_transform_ms"] = value{transformMs, samples}
	m["host.raw_cpu_ms_per_op"] = value{cpuMs, samples}
}

// replayLayers runs the fft, tensor and mpisim replays of every pipeline and
// fills the per-transform layer metrics: each pipeline contributes its share
// of the workload's transforms, a call's worth divided by its batch.
func replayLayers(m map[string]value, res *runResult, pipes []pipeline, ranks int, quick bool, cpuMs float64, rec *recorder) error {
	root := rec.begin("replays", -1, -1, 0)
	defer rec.end(root)
	reps := 7 // traversals per replay; their median is reported
	if quick {
		reps = 2
	}
	add := func(name string, v float64, samples int) {
		m[name] = value{m[name].v + v, samples}
	}
	var contigSec, contigLines, stridedSec, stridedLines, realSec, realLines float64
	var collRounds, p2pRounds []float64
	var hostSec, messages float64
	for i := range pipes {
		p := &pipes[i]
		perTransform := p.share / float64(p.batch)
		c := p.counts()
		add("fft.lines", perTransform*c.lines, 1)
		add("fft.flops", perTransform*c.flops, 1)
		add("tensor.pack_bytes", perTransform*c.packBytes, 1)
		add("tensor.unpack_bytes", perTransform*c.packBytes, 1)
		add("mpisim.exchanges", perTransform*c.exchanges, 1)
		add("mpisim.messages", perTransform*c.messages, 1)
		add("mpisim.bytes", perTransform*c.bytes, 1)

		if !p.phantom {
			// One field's traversal is one transform's worth of kernel and
			// pack work, whatever the batch.
			f := replayFFT(p, reps, rec, root)
			add("fft.busy_ms", 1e3*p.share*f.busySec, reps)
			contigSec, contigLines = contigSec+f.contigSec, contigLines+f.contigLines
			stridedSec, stridedLines = stridedSec+f.stridedSec, stridedLines+f.stridedLines
			realSec, realLines = realSec+f.realSec, realLines+f.realLines
			t := replayTensor(p, reps, rec, root)
			add("tensor.pack_busy_ms", 1e3*p.share*t.packSec, reps)
			add("tensor.unpack_busy_ms", 1e3*p.share*t.unpackSec, reps)
			add("fft.serial3d_ms", 1e3*p.share*serial3D(p.global[0], reps), reps)
			res.notes = append(res.notes, fmt.Sprintf("%s: tensor replay arrays are %.2f MB per rank (cache-resident), LLC is %.1f MB",
				p.name, float64(16*p.global[0]*p.global[1]*p.global[2])/float64(ranks)/mb, float64(llcBytes())/mb))
		}

		x, err := replayExchanges(p, ranks, reps, rec, root)
		if err != nil {
			return err
		}
		if p.mode == exchP2P {
			p2pRounds = append(p2pRounds, x.roundSec...)
		} else {
			collRounds = append(collRounds, x.roundSec...)
		}
		for _, s := range x.roundSec {
			hostSec += s / float64(2*reps)
		}
		messages += c.messages
		add("mpisim.exchange_alloc_kb", p.share*x.roundAllocKB, len(x.roundSec))
		add("mpisim.exchange_virtual_us", 1e6*perTransform*x.callVirtual, 2*reps)
		add("mpisim.replay_cpu_ms", 1e3*perTransform*x.callCPUSec, 2*reps)
		if i == 0 {
			m["mpisim.barrier_host_us"] = value{1e6 * x.barrierSec, 50}
			m["tensor.decompose_us"] = value{1e6 * decomposeSec(p.global, p.pq[0], p.pq[1]), 21}
		}
	}
	perLine := func(name string, sec, lines float64) {
		if lines > 0 {
			m[name] = value{1e9 * sec / lines, int(lines)}
		}
	}
	perLine("fft.contig_ns_per_line", contigSec, contigLines)
	perLine("fft.strided_ns_per_line", stridedSec, stridedLines)
	perLine("fft.real_ns_per_line", realSec, realLines)
	if busy := m["fft.busy_ms"].v; busy > 0 {
		m["fft.gflops"] = value{m["fft.flops"].v / (busy / 1e3) / 1e9, reps}
	}
	if t := m["tensor.pack_busy_ms"].v; t > 0 {
		m["tensor.pack_gbps"] = value{m["tensor.pack_bytes"].v / (t / 1e3) / 1e9, reps}
	}
	if t := m["tensor.unpack_busy_ms"].v; t > 0 {
		m["tensor.unpack_gbps"] = value{m["tensor.unpack_bytes"].v / (t / 1e3) / 1e9, reps}
	}
	m["mpisim.exchange_host_us"] = value{1e6 * median(collRounds), len(collRounds)}
	m["mpisim.p2p_round_host_us"] = value{1e6 * median(p2pRounds), len(p2pRounds)}
	if messages > 0 {
		m["mpisim.host_ns_per_message"] = value{1e9 * hostSec / messages, len(collRounds) + len(p2pRounds)}
	}
	m["core.glue_cpu_ms"] = value{cpuMs - m["fft.busy_ms"].v - m["tensor.pack_busy_ms"].v -
		m["tensor.unpack_busy_ms"].v - m["mpisim.replay_cpu_ms"].v, 1}
	if s := m["fft.serial3d_ms"].v; s > 0 {
		m["core.cpu_vs_serial"] = value{cpuMs / s, 1}
	}
	return nil
}

// finishTrace writes the spans when asked to and reports where the traced
// pass's host time went, by self time.
func finishTrace(rec *recorder, o options) error {
	spans := rec.snapshot()
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, spans); err != nil {
			return err
		}
	}
	self := selfByName(spans)
	type row struct {
		name string
		sec  float64
	}
	var rows []row
	for name, d := range self {
		rows = append(rows, row{name, d.Seconds()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sec > rows[j].sec })
	fmt.Printf("  spans: %d recorded; self time by name (top 8):\n", len(spans))
	for i, r := range rows {
		if i == 8 {
			break
		}
		fmt.Printf("    %-44s %9.1f ms\n", r.name, 1e3*r.sec)
	}
	return nil
}
