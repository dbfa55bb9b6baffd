package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// The layer replays measure each module from outside: the harness rebuilds
// the workload's stage list from the plan's public geometry (in/out boxes,
// PencilGrid, Decomp, core.PencilBoxes, tensor.Intersect), checks it against
// the plan's own CommVolumes/CommPhases, and then drives one layer alone with
// exactly the call shapes the workload makes into it — single-threaded, all
// ranks' worth of one traversal.

// exchMode is how a pipeline's reshapes reach mpisim.
type exchMode int

const (
	// exchAlltoallv: blocking AlltoallvWith, the batch fused into one
	// message per pair (Plan.ForwardBatch on BackendAlltoallv).
	exchAlltoallv exchMode = iota
	// exchIalltoallv: one Ialltoallv per batch entry, all posted, then
	// drained with WaitColl (Plan.ForwardPipelined).
	exchIalltoallv
	// exchP2P: Irecv, Isend, Waitany, Waitall with the batch fused
	// (RealPlan on BackendP2P).
	exchP2P
)

type stageKind int

const (
	stageReshape stageKind = iota
	stageFFT1D             // 1-D complex lines along axis
	stageFFT2D             // slab stage: 2-D transforms over axes (1,2)
	stageR2C               // real-to-complex lines along axis 2
)

type stageDesc struct {
	kind  stageKind
	label string
	// Reshape: the distribution before and after, bytes per element.
	from, to []tensor.Box3
	elem     int
	// Compute: every rank's box during the stage, and the transform axis.
	boxes []tensor.Box3
	axis  int
}

// pipeline is the stage list one plan call traverses.
type pipeline struct {
	name     string
	global   [3]int // the plan's input grid
	pq       [2]int // its pencil grid
	phantom  bool   // size-only fields: no kernel or pack work exists to replay
	batch    int    // fields per call
	mode     exchMode
	gpuAware bool
	// share is the share of the workload's transforms that traverse this
	// pipeline (1 for a single plan, ½ + ½ for altpaths64_r24's two plans).
	share  float64
	stages []stageDesc
	// phases[rank][i] is what the plan resolved for reshape i on that rank;
	// nil when the plan exposes none (RealPlan).
	phases [][]phaseInfo
}

// phaseInfo is one rank's view of one communication phase, from the plan's
// CommVolumes and CommPhases.
type phaseInfo struct {
	label     string
	sendBytes int
	algo      core.CollAlgo
	chunks    int
}

func phasesOf(plan *core.Plan) []phaseInfo {
	vols, phs := plan.CommVolumes(), plan.CommPhases()
	out := make([]phaseInfo, len(vols))
	for i := range vols {
		out[i] = phaseInfo{label: vols[i].Label, sendBytes: vols[i].SendBytes, algo: phs[i].Algo, chunks: phs[i].Chunks}
	}
	return out
}

func (p *pipeline) reshapes() []stageDesc {
	var out []stageDesc
	for _, st := range p.stages {
		if st.kind == stageReshape {
			out = append(out, st)
		}
	}
	return out
}

func boxesEqual(a, b []tensor.Box3) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// stageBuilder accumulates a stage list, skipping identity reshapes exactly
// as the plan builder does.
type stageBuilder struct {
	cur    []tensor.Box3
	stages []stageDesc
}

func (b *stageBuilder) reshape(to []tensor.Box3, label string, elem int) {
	if boxesEqual(b.cur, to) {
		return
	}
	b.stages = append(b.stages, stageDesc{kind: stageReshape, label: label, from: b.cur, to: to, elem: elem})
	b.cur = to
}

func (b *stageBuilder) compute(kind stageKind, axis int) {
	b.stages = append(b.stages, stageDesc{kind: kind, label: fmt.Sprintf("fft axis %d", axis), boxes: b.cur, axis: axis})
}

var axisName = [3]string{"x", "y", "z"}

// c2cPipeline rebuilds a complex plan's stage list from its public geometry.
func c2cPipeline(name string, plan *core.Plan, size int, cfg core.Config, phantom bool, batch int, mode exchMode, gpuAware bool, share float64) (pipeline, error) {
	in, out := cfg.InBoxes, cfg.OutBoxes
	if in == nil {
		in = core.DefaultBricks(size, cfg.Global)
	}
	if out == nil {
		out = core.DefaultBricks(size, cfg.Global)
	}
	b := stageBuilder{cur: in}
	p, q := plan.PencilGrid()
	switch plan.Decomp() {
	case core.DecompPencils:
		for axis := 0; axis < 3; axis++ {
			b.reshape(core.PencilBoxes(cfg.Global, axis, p, q), "pencil-"+axisName[axis], 16)
			b.compute(stageFFT1D, axis)
		}
	case core.DecompSlabs:
		b.reshape(tensor.SlabGrid(0, size).Decompose(cfg.Global), "slab-0", 16)
		b.compute(stageFFT2D, 0)
		b.reshape(tensor.SlabGrid(1, size).Decompose(cfg.Global), "slab-1", 16)
		b.compute(stageFFT1D, 0)
	default:
		return pipeline{}, fmt.Errorf("replay: no stage list for the %v decomposition", plan.Decomp())
	}
	b.reshape(out, "output", 16)
	return pipeline{name: name, global: cfg.Global, pq: [2]int{p, q}, phantom: phantom, batch: batch,
		mode: mode, gpuAware: gpuAware, share: share, stages: b.stages}, nil
}

// r2cPipeline is the RealPlan's documented pipeline: real bricks → real
// z-pencils (8-byte elements), local r2c along axis 2, then the complex
// pencil stages on the Hermitian half grid and out to half-grid bricks.
func r2cPipeline(name string, size int, global [3]int, batch int, gpuAware bool, share float64) pipeline {
	half := [3]int{global[0], global[1], global[2]/2 + 1}
	p, q := tensor.Square2D(size)
	b := stageBuilder{cur: core.DefaultBricks(size, global)}
	b.reshape(core.PencilBoxes(global, 2, p, q), "r2c-input", 8)
	b.compute(stageR2C, 2)
	b.cur = core.PencilBoxes(half, 2, p, q)
	b.reshape(core.PencilBoxes(half, 1, p, q), "r2c-pencil-y", 16)
	b.compute(stageFFT1D, 1)
	b.reshape(core.PencilBoxes(half, 0, p, q), "r2c-pencil-x", 16)
	b.compute(stageFFT1D, 0)
	b.reshape(core.DefaultBricks(size, half), "r2c-output", 16)
	return pipeline{name: name, global: global, pq: [2]int{p, q}, batch: batch,
		mode: exchP2P, gpuAware: gpuAware, share: share, stages: b.stages}
}

// validate checks the rebuilt geometry against what the plan itself reports
// on every rank: same phases in the same order, same bytes sent, and no
// chunking (the replay drives whole exchanges).
func (p *pipeline) validate() error {
	if p.phases == nil {
		return nil
	}
	rs := p.reshapes()
	for rank, phases := range p.phases {
		if len(phases) != len(rs) {
			return fmt.Errorf("replay %s: rebuilt %d reshapes, plan has %d phases on rank %d", p.name, len(rs), len(phases), rank)
		}
		for i, ph := range phases {
			sent := 0
			for dst := range rs[i].to {
				if dst != rank {
					sent += rs[i].elem * tensor.Intersect(rs[i].from[rank], rs[i].to[dst]).Volume()
				}
			}
			if ph.label != rs[i].label || ph.sendBytes != sent || ph.chunks != 1 {
				return fmt.Errorf("replay %s: rank %d phase %d: plan reports %s/%d B/%d chunks, rebuilt %s/%d B/1",
					p.name, rank, i, ph.label, ph.sendBytes, ph.chunks, rs[i].label, sent)
			}
		}
	}
	return nil
}

// pairBox is one non-empty block of a reshape: the part of src's box that
// dst owns afterwards (src == dst is the local share).
type pairBox struct {
	src, dst int
	box      tensor.Box3
}

func overlaps(st stageDesc) []pairBox {
	var out []pairBox
	for s, fb := range st.from {
		if fb.Empty() {
			continue
		}
		for d, tb := range st.to {
			if b := tensor.Intersect(fb, tb); !b.Empty() {
				out = append(out, pairBox{s, d, b})
			}
		}
	}
	return out
}

// groupColors returns each rank's exchange group for a reshape: the
// connected components of the "data moves between i and j" graph, coloured
// by their smallest rank (-1: the rank holds no data on either side).
func groupColors(n int, ov []pairBox) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	involved := make([]bool, n)
	for _, pb := range ov {
		involved[pb.src], involved[pb.dst] = true, true
		a, b := find(pb.src), find(pb.dst)
		if a != b {
			parent[max(a, b)] = min(a, b)
		}
	}
	color := make([]int, n)
	for r := range color {
		color[r] = -1
		if involved[r] {
			color[r] = find(r)
		}
	}
	return color
}

// layerCounts are the exact work counts of one call of a pipeline (batch
// fields), summed over ranks.
type layerCounts struct {
	exchanges, messages, bytes float64 // mpisim
	packBytes                  float64 // tensor, self blocks included
	lines, flops               float64 // fft
}

func (p *pipeline) counts() layerCounts {
	var c layerCounts
	posts := 1.0 // exchanges entered per reshape and rank
	if p.mode == exchIalltoallv {
		posts = float64(p.batch)
	}
	for _, st := range p.stages {
		switch st.kind {
		case stageReshape:
			ov := overlaps(st)
			for _, col := range groupColors(len(st.from), ov) {
				if col >= 0 {
					c.exchanges += posts
				}
			}
			for _, pb := range ov {
				by := float64(st.elem * pb.box.Volume() * p.batch)
				if !p.phantom {
					c.packBytes += by
				}
				if pb.src != pb.dst {
					c.messages += posts
					c.bytes += by
				}
			}
		default:
			if p.phantom {
				continue
			}
			for _, box := range st.boxes {
				l, f := stageLines(st, box)
				c.lines += l * float64(p.batch)
				c.flops += f * float64(p.batch)
			}
		}
	}
	return c
}

// stageLines counts the 1-D lines one rank transforms in a compute stage and
// their nominal 5·n·log2(n) flops (a real line of length n counts as a
// complex n/2).
func stageLines(st stageDesc, box tensor.Box3) (lines, flops float64) {
	if box.Empty() {
		return 0, 0
	}
	s := box.Sizes()
	switch st.kind {
	case stageFFT2D:
		l1, l2 := float64(s[0]*s[1]), float64(s[0]*s[2])
		return l1 + l2, l1*stats.FFTFlops(s[2]) + l2*stats.FFTFlops(s[1])
	case stageR2C:
		l := float64(s[0] * s[1])
		return l, l * stats.FFTFlops(s[2]) / 2
	}
	l := float64(box.Volume() / s[st.axis])
	return l, l * stats.FFTFlops(s[st.axis])
}

// fftReplay is the kernel time of one field's traversal, all ranks' worth:
// the median traversal in total and by kind of line, with the line counts.
type fftReplay struct {
	busySec                              float64
	contigSec, stridedSec, realSec       float64
	contigLines, stridedLines, realLines float64
}

// scratch returns n complex values of no particular meaning.
func scratch(n int) []complex128 {
	data := make([]complex128, n)
	for i := range data {
		data[i] = complex(float64(i%7)-3, float64(i%5)-2)
	}
	return data
}

// alternate is Forward on even repetitions and Inverse on odd ones, so
// scratch data transformed over and over stays bounded.
func alternate(rep int) fft.Direction {
	if rep%2 == 1 {
		return fft.Inverse
	}
	return fft.Forward
}

// replayFFT drives internal/fft alone with the calls core.localFFT1D,
// the slab stage and the RealPlan's r2c stage make, for every rank's box of
// every compute stage, reps times over.
func replayFFT(p *pipeline, reps int, rec *recorder, parent int) fftReplay {
	prev := fft.SetWorkers(1)
	defer fft.SetWorkers(prev)
	maxVol := 0
	for _, st := range p.stages {
		for _, b := range st.boxes {
			maxVol = max(maxVol, b.Volume())
		}
	}
	// Real z-pencils hold n2 reals per line and produce n2/2+1 complex values.
	data, realData := scratch(maxVol), make([]float64, 2*maxVol)
	for i, z := range data {
		realData[2*i], realData[2*i+1] = real(z), imag(z)
	}
	var out fftReplay
	busy, contig, strided, realSec := make([]float64, reps), make([]float64, reps), make([]float64, reps), make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		for _, st := range p.stages {
			if st.kind == stageReshape {
				continue
			}
			id := rec.begin("replay "+p.name+" "+st.label, parent, rep, 0)
			t0 := time.Now()
			lines := 0.0
			for _, box := range st.boxes {
				l, _ := stageLines(st, box)
				lines += l
				runKernel(st, box, data, realData, alternate(rep))
			}
			dt := time.Since(t0).Seconds()
			rec.end(id)
			busy[rep] += dt
			if rep > 0 {
				lines = 0 // counted once
			}
			switch {
			case st.kind == stageR2C:
				realSec[rep] += dt
				out.realLines += lines
			case st.kind == stageFFT1D && st.axis == 2:
				contig[rep] += dt
				out.contigLines += lines
			default:
				strided[rep] += dt
				out.stridedLines += lines
			}
		}
	}
	out.busySec, out.contigSec, out.stridedSec, out.realSec = median(busy), median(contig), median(strided), median(realSec)
	return out
}

// runKernel is one rank's compute stage on scratch data.
func runKernel(st stageDesc, box tensor.Box3, data []complex128, realData []float64, dir fft.Direction) {
	if box.Empty() {
		return
	}
	s := box.Sizes()
	d := data[:box.Volume()]
	switch st.kind {
	case stageFFT2D:
		for i0 := 0; i0 < s[0]; i0++ {
			fft.Transform2D(d[i0*s[1]*s[2]:(i0+1)*s[1]*s[2]], s[1], s[2], dir)
		}
	case stageR2C:
		rp, err := fft.NewRealPlan(s[2])
		if err != nil {
			panic(err) // the plan was built with this length
		}
		h, rows := s[2]/2+1, s[0]*s[1]
		x, spec := realData[:rows*s[2]], data[:rows*h]
		if dir == fft.Forward {
			err = rp.ForwardBatch(x, 1, s[2], spec, 1, h, rows)
		} else {
			err = rp.InverseBatch(spec, 1, h, x, 1, s[2], rows)
		}
		if err != nil {
			panic(err)
		}
	default:
		pl := fft.NewPlan(s[st.axis])
		switch st.axis {
		case 2:
			pl.TransformBatch(d, 1, s[2], s[0]*s[1], dir)
		case 1:
			pl.TransformNested(d, s[2], s[1]*s[2], s[0], 1, s[2], dir)
		case 0:
			pl.TransformBatch(d, s[1]*s[2], 1, s[1]*s[2], dir)
		}
	}
}

// serial3D times the plain single-threaded fft.Transform3D of an n³ grid:
// the baseline a distributed transform's CPU is compared against.
func serial3D(n, reps int) float64 {
	prev := fft.SetWorkers(1)
	defer fft.SetWorkers(prev)
	data := scratch(n * n * n)
	xs := make([]float64, reps)
	for rep := range xs {
		t0 := time.Now()
		fft.Transform3D(data, n, n, n, alternate(rep))
		xs[rep] = time.Since(t0).Seconds()
	}
	return median(xs)
}

// tensorReplay is the pack and unpack time of one field's traversal.
type tensorReplay struct{ packSec, unpackSec float64 }

// replayTensor drives tensor.Pack and tensor.Unpack alone over every block
// of every reshape (self blocks included, as packSendBufs packs them), reps
// times over, and reports the median traversal.
func replayTensor(p *pipeline, reps int, rec *recorder, parent int) tensorReplay {
	packs, unpacks := make([]float64, reps), make([]float64, reps)
	for _, st := range p.reshapes() {
		span := func(rep int) int { return rec.begin("replay "+p.name+" pack/unpack "+st.label, parent, rep, 0) }
		if st.elem == 8 {
			packUnpack[float64](st, packs, unpacks, span, rec.end)
		} else {
			packUnpack[complex128](st, packs, unpacks, span, rec.end)
		}
	}
	return tensorReplay{median(packs), median(unpacks)}
}

// packUnpack adds one reshape's pack and unpack seconds to every repetition.
func packUnpack[T any](st stageDesc, packs, unpacks []float64, begin func(rep int) int, end func(id int)) {
	ov := overlaps(st)
	maxFrom, maxTo, total := 0, 0, 0
	for _, b := range st.from {
		maxFrom = max(maxFrom, b.Volume())
	}
	for _, b := range st.to {
		maxTo = max(maxTo, b.Volume())
	}
	offs := make([]int, len(ov))
	for i, pb := range ov {
		offs[i] = total
		total += pb.box.Volume()
	}
	src, dst, staging := make([]T, maxFrom), make([]T, maxTo), make([]T, total)
	byDst := make([]int, len(ov))
	for i := range byDst {
		byDst[i] = i
	}
	sort.SliceStable(byDst, func(a, b int) bool { return ov[byDst[a]].dst < ov[byDst[b]].dst })

	for rep := range packs {
		id := begin(rep)
		t0 := time.Now()
		for i, pb := range ov { // ordered by source rank, as each rank packs its sends
			own := st.from[pb.src]
			tensor.Pack(src[:own.Volume()], own, pb.box, staging[offs[i]:offs[i]+pb.box.Volume()])
		}
		t1 := time.Now()
		for _, i := range byDst { // ordered by destination rank, as each rank unpacks its receives
			pb := ov[i]
			own := st.to[pb.dst]
			tensor.Unpack(dst[:own.Volume()], own, pb.box, staging[offs[i]:offs[i]+pb.box.Volume()])
		}
		packs[rep] += t1.Sub(t0).Seconds()
		unpacks[rep] += time.Since(t1).Seconds()
		end(id)
	}
}

// decomposeSec times one ProcGrid.Decompose at the workload's rank count —
// every rank pays one per stage at plan build today.
func decomposeSec(global [3]int, p, q int) float64 {
	var xs []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		boxes := tensor.PencilGrid(0, p, q).Decompose(global)
		xs = append(xs, time.Since(t0).Seconds())
		runtime.KeepAlive(boxes)
	}
	return median(xs)
}

// exchReplay is what a bare-exchange replay of one pipeline measured.
type exchReplay struct {
	roundSec     []float64 // host seconds of each barrier-bracketed exchange round
	callCPUSec   float64   // process CPU per plan call's worth of exchanges
	roundAllocKB float64   // heap allocated per exchange round, all ranks
	callVirtual  float64   // rank 0 virtual seconds per call's worth (brackets included)
	barrierSec   float64   // host seconds of one bare barrier
}

func simAlgo(a core.CollAlgo) mpisim.Algo {
	switch a {
	case core.CollPairwise:
		return mpisim.AlgoPairwise
	case core.CollRing:
		return mpisim.AlgoRing
	case core.CollBruck:
		return mpisim.AlgoBruck
	case core.CollNodeAware:
		return mpisim.AlgoNodeAware
	}
	return mpisim.AlgoLinear
}

// replayExchanges drives internal/mpisim alone: a world of the same size and
// GPU-awareness, the same Split groups, and for every reshape the same
// per-peer sizes as phantom buffers through the same entry point (with the
// algorithm each rank's plan resolved). reps forward+inverse traversals;
// every exchange round is bracketed by barriers and timed on rank 0.
func replayExchanges(p *pipeline, ranks, reps int, rec *recorder, parent int) (res exchReplay, err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = fmt.Errorf("replay %s exchanges: %v", p.name, pv)
		}
	}()
	rs := p.reshapes()
	colors := make([][]int, len(rs))
	members := make([]map[int][]int, len(rs))
	for i, st := range rs {
		colors[i] = groupColors(ranks, overlaps(st))
		members[i] = map[int][]int{}
		for r, col := range colors[i] {
			if col >= 0 {
				members[i][col] = append(members[i][col], r) // ascending
			}
		}
	}
	fuse := p.batch // fields sharing one message
	if p.mode == exchIalltoallv {
		fuse = 1
	}
	const barriers = 50

	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: p.gpuAware})
	out := w.Run(func(c *mpisim.Comm) {
		rank, lead := c.Rank(), c.Rank() == 0
		type side struct {
			send []mpisim.Buf
			from []bool // peers with a non-empty block for this rank
		}
		groups := make([]*mpisim.Comm, len(rs))
		sides := make([][2]side, len(rs)) // [reshape][forward, inverse]
		for i, st := range rs {
			groups[i] = c.Split(colors[i][rank], rank)
			if groups[i] == nil {
				continue
			}
			ms := members[i][colors[i][rank]]
			for d := range sides[i] {
				sides[i][d] = side{send: make([]mpisim.Buf, len(ms)), from: make([]bool, len(ms))}
			}
			for gi, m := range ms {
				fwd := tensor.Intersect(st.from[rank], st.to[m]).Volume()
				rev := tensor.Intersect(st.to[rank], st.from[m]).Volume()
				buf := func(vol int) mpisim.Buf {
					return mpisim.Buf{N: vol * fuse, PhantomReal: st.elem == 8, Loc: machine.Device}
				}
				sides[i][0].send[gi], sides[i][0].from[gi] = buf(fwd), rev > 0
				sides[i][1].send[gi], sides[i][1].from[gi] = buf(rev), fwd > 0
			}
		}
		exchange := func(i, d int) {
			g := groups[i]
			if g == nil {
				return
			}
			sd := sides[i][d]
			switch p.mode {
			case exchAlltoallv:
				algo := mpisim.AlgoLinear
				if p.phases != nil {
					algo = simAlgo(p.phases[rank][i].algo)
				}
				g.AlltoallvWith(sd.send, algo)
			case exchIalltoallv:
				reqs := make([]*mpisim.CollRequest, p.batch)
				for b := range reqs {
					reqs[b] = g.Ialltoallv(sd.send)
				}
				for _, r := range reqs {
					g.WaitColl(r)
				}
			case exchP2P:
				var rreqs, sreqs []*mpisim.Request
				for gi := range sd.send {
					if gi != g.Rank() && sd.from[gi] {
						rreqs = append(rreqs, g.Irecv(gi, i))
					}
				}
				for gi, b := range sd.send {
					if gi != g.Rank() && b.N > 0 {
						sreqs = append(sreqs, g.Isend(gi, i, b))
					}
				}
				for range rreqs {
					g.Waitany(rreqs)
				}
				g.Waitall(sreqs)
			}
		}

		c.Barrier()
		var m0 runtime.MemStats
		var cpu0, v0 float64
		var mark time.Time
		if lead {
			runtime.ReadMemStats(&m0)
			cpu0, v0, mark = cpuSeconds(), c.Clock(), time.Now()
		}
		for rep := 0; rep < reps; rep++ {
			for d := 0; d < 2; d++ {
				for k := range rs {
					i := k
					if d == 1 {
						i = len(rs) - 1 - k // the inverse walks the reshapes backwards
					}
					id := -1
					if lead {
						id = rec.begin("replay "+p.name+" exchange "+rs[i].label, parent, rep, 0)
					}
					exchange(i, d)
					c.Barrier()
					if lead {
						rec.end(id)
						now := time.Now()
						res.roundSec = append(res.roundSec, now.Sub(mark).Seconds())
						mark = now
					}
				}
			}
		}
		if lead {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			calls := float64(2 * reps)
			res.callCPUSec = (cpuSeconds() - cpu0) / calls
			res.callVirtual = (c.Clock() - v0) / calls
			res.roundAllocKB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(len(res.roundSec))
			mark, cpu0 = time.Now(), cpuSeconds()
		}
		for i := 0; i < barriers; i++ {
			c.Barrier()
		}
		if lead {
			res.barrierSec = time.Since(mark).Seconds() / barriers
			// The brackets are the harness's, not the exchange's: take one
			// barrier's CPU per round back out of the call.
			res.callCPUSec -= float64(len(rs)) * (cpuSeconds() - cpu0) / barriers
		}
	})
	return res, out.Err
}
