package core

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/model"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// Config describes a distributed transform.
type Config struct {
	// Global is the extents of the 3-D grid (N0, N1, N2).
	Global [3]int
	// InBoxes and OutBoxes give the data distribution at input and output,
	// one box per rank. Nil selects the minimum-surface brick decomposition,
	// the shape real applications produce (Table III, blue grids).
	InBoxes  []tensor.Box3
	OutBoxes []tensor.Box3
	Opts     Options
}

// Plan is one rank's handle on a collectively created distributed-FFT plan
// (Algorithm 1). Safe to execute repeatedly; not safe for concurrent use by
// the same rank.
type Plan struct {
	engine

	inBox, outBox tensor.Box3
	stages        []stage
	// dists records the full data distribution at every stage boundary:
	// dists[0] is the input distribution and dists[i+1] the distribution
	// after stages[i] (reshapes change it, compute stages keep it). Resume
	// uses it to rebuild the fields of an arbitrary boundary on a re-planned
	// survivor world; len(dists) == len(stages)+1.
	dists [][]tensor.Box3

	// lp is the number of active ranks after FFT grid shrinking
	// (Algorithm 1, line 2); equals comm size when shrinking is off.
	lp int
	// p, q is the pencil grid actually used.
	p, q int

	// one is the single-field batch scratch of Forward/Inverse, so the
	// steady-state execution path performs no allocations; grid is
	// ForwardGlobal's, as wide as the widest batch run, emptied after each call.
	one  [1]*Field
	grid []*Field
}

// NewPlan collectively creates a plan. Every rank of c must call NewPlan with
// identical Config (as with MPI plan creation in heFFTe).
func NewPlan(c *mpisim.Comm, cfg Config) (*Plan, error) {
	size := c.Size()
	if err := checkConfig(cfg.Global, cfg.Opts, complexPlan); err != nil {
		return nil, err
	}
	in, out, err := inOutDists(c, cfg.InBoxes, cfg.OutBoxes, cfg.Global, cfg.Global)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		engine: engine{comm: c, dev: gpu.New(c), opts: cfg.Opts, caps: &backends[cfg.Opts.Backend], global: cfg.Global},
		inBox:  in.boxes[c.Rank()],
		outBox: out.boxes[c.Rank()],
		lp:     size,
	}

	// FFT grid shrinking: if the per-rank volume would be below the
	// threshold, compute on fewer ranks and remap pre/post (Algorithm 1,
	// line 2). "The smaller the number of processes controlling the
	// computation" the better, once network communication is involved.
	total := cfg.Global[0] * cfg.Global[1] * cfg.Global[2]
	if t := cfg.Opts.ShrinkThreshold; t > 0 {
		lp := (total + t - 1) / t
		if lp < 1 {
			lp = 1
		}
		if lp < size {
			p.lp = lp
		}
	}

	// Resolve the pencil grid over the active ranks.
	if p.p, p.q, err = pencilGrid(cfg.Opts.PQ, p.lp); err != nil {
		return nil, err
	}

	// Resolve the decomposition.
	p.decomp = cfg.Opts.Decomp
	if p.decomp == DecompAuto {
		params := model.Params{Latency: c.Model().InterLatency, Bandwidth: c.Model().NodeInjectionBW}
		if model.PreferSlabs(cfg.Global, p.p, p.q, params) {
			p.decomp = DecompSlabs
		} else {
			p.decomp = DecompPencils
		}
	}
	p.buildStages(in, out)
	p.abftEps = abftEpsOf(p.opts, p.stages)
	return p, nil
}

// pencilGrid resolves the P×Q pencil grid over n active ranks: the most
// square factorization for a zero pq, pq itself otherwise (checkConfig has
// made both entries positive; they must factor n).
func pencilGrid(pq [2]int, n int) (p, q int, err error) {
	if pq == [2]int{} {
		p, q = tensor.Square2D(n)
		return p, q, nil
	}
	p, q = pq[0], pq[1]
	if p*q != n {
		return 0, 0, fmt.Errorf("core: %w: pencil grid %dx%d does not match %d active ranks", ErrBadConfig, p, q, n)
	}
	return p, q, nil
}

// stageBuilder appends a plan's stages, from the distribution the data sits on
// (cur), in the same order on every rank, so the collective Split calls of
// reshape construction stay matched; dists records each boundary (Plan.dists).
// Plans hold at most seven stages: stages starts with room for exactly seven.
type stageBuilder struct {
	c      *mpisim.Comm
	ck     uint64
	global [3]int // the grid the FFT stages transform
	cur    *dist
	tag    int // the last reshape tag taken
	stages []stage
	dists  [][]tensor.Box3
}

// reshape moves the data to target, unless it already sits there. interior
// marks a reshape strictly between compute stages, the ones eligible for wire
// compression (input/output reshapes move caller data and always ship full
// precision — see wire.go). Every reshape takes the next tag, built or not.
func (b *stageBuilder) reshape(target *dist, label string, interior bool) {
	b.tag++
	if sameDist(b.c, b.cur, target) {
		return
	}
	rs := buildReshape(b.c, b.ck, b.cur, target, label, b.tag)
	rs.interior = interior
	b.stages = append(b.stages, stage{kind: stageReshape, label: "reshape " + label, rs: rs})
	b.cur = target
	b.dists = append(b.dists, target.boxes)
}

// compute appends a local compute stage over the current distribution.
func (b *stageBuilder) compute(st stage) {
	st.myBox = b.cur.boxes[b.c.Rank()]
	b.stages = append(b.stages, st)
	b.dists = append(b.dists, b.cur.boxes)
}

// fft1D appends the 1-D FFTs along axis. The kernel plan is resolved now so
// execution never takes the plan-cache lock; twiddle tables are shared across
// all lookups.
func (b *stageBuilder) fft1D(axis int) {
	b.compute(stage{kind: stageFFT1D, label: fmt.Sprintf("fft axis %d", axis), axis: axis, fplan: fft.NewPlan(b.global[axis])})
}

// buildStages constructs the reshape/compute pipeline. Every intermediate
// distribution comes through gridDist — over lp active ranks, padded with
// empty boxes to the communicator — so the world holds each list once.
func (p *Plan) buildStages(in, out *dist) {
	c := p.comm
	grid := func(g tensor.ProcGrid) *dist { return gridDist(c, p.global, g) }
	pencils := func(axis int) *dist { return grid(tensor.PencilGrid(axis, p.p, p.q)) }
	slabs := func(axis int) *dist { return grid(tensor.SlabGrid(axis, p.lp)) }
	b := &stageBuilder{c: c, ck: commKey(c), global: p.global, cur: in, stages: make([]stage, 0, 7),
		dists: [][]tensor.Box3{in.boxes}}

	switch p.decomp {
	case DecompPencils:
		b.reshape(pencils(0), "pencil-x", false)
		b.fft1D(0)
		b.reshape(pencils(1), "pencil-y", true)
		b.fft1D(1)
		b.reshape(pencils(2), "pencil-z", true)
		b.fft1D(2)
		b.reshape(out, "output", false)

	case DecompBricks:
		// The brick variant (fftMPI/SWFFT style): intermediate grids are
		// derived from the 3-D brick grid (a, b, c), so each of the four
		// phases exchanges within smaller groups that share a coordinate of
		// the brick grid — cheaper phases at the price of more of them.
		g := tensor.MinSurfaceGrid(p.lp, p.global).Dims
		ga, gb, gc := g[0], g[1], g[2]
		b.reshape(grid(tensor.NewProcGrid(1, ga*gb, gc)), "brick-x", false)
		b.fft1D(0)
		b.reshape(grid(tensor.NewProcGrid(ga, 1, gb*gc)), "brick-y", true)
		b.fft1D(1)
		b.reshape(grid(tensor.NewProcGrid(ga*gb, gc, 1)), "brick-z", true)
		b.fft1D(2)
		b.reshape(out, "output", false)

	case DecompSlabs:
		// Slabs along axis 0: local 2-D FFTs over axes (1,2), one exchange
		// to slabs along axis 1, then 1-D FFTs along axis 0.
		b.reshape(slabs(0), "slab-0", false)
		b.compute(stage{
			kind: stageFFT2D, label: "fft planes",
			// Both kernel plans now, for the same reason as in fft1D.
			fplan: fft.NewPlan(p.global[2]), fcols: fft.NewPlan(p.global[1]),
		})
		b.reshape(slabs(1), "slab-1", true)
		b.fft1D(0)
		b.reshape(out, "output", false)
	}
	p.stages, p.dists = b.stages, b.dists
}

// Close makes the plan unusable and drops its execution scratch; subsequent
// executions return ErrPlanClosed. Closing an already-closed plan is a no-op.
// Close is local to this rank; staging buffers are pooled process-wide, so
// closing one plan never disturbs others.
func (p *Plan) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.one[0], p.grid = nil, nil
	return nil
}

func boxesEqual(a, b []tensor.Box3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Decomp returns the resolved decomposition (never auto).
func (p *Plan) Decomp() Decomposition { return p.decomp }

// PencilGrid returns the P×Q grid used by the pencil stages.
func (p *Plan) PencilGrid() (pg, qg int) { return p.p, p.q }

// InBox and OutBox return this rank's input and output boxes.
func (p *Plan) InBox() tensor.Box3  { return p.inBox }
func (p *Plan) OutBox() tensor.Box3 { return p.outBox }

// Exchanges returns the number of communication phases in the pipeline.
func (p *Plan) Exchanges() int {
	n := 0
	for _, st := range p.stages {
		if st.kind == stageReshape {
			n++
		}
	}
	return n
}

// ExchangeVolume describes one communication phase of the plan from this
// rank's perspective — the quantities the bandwidth model of Section III
// reasons about.
type ExchangeVolume struct {
	Label     string
	GroupSize int // ranks in this phase's exchange group (0 = not involved)
	SendBytes int // bytes this rank sends (excluding its self block)
	RecvBytes int // bytes this rank receives
	SelfBytes int // local share that never touches the network
	MaxMsg    int // largest single message
	NumDst    int // destinations with non-empty payloads
}

// CommVolumes reports the per-phase communication volumes of one transform.
func (p *Plan) CommVolumes() []ExchangeVolume {
	var out []ExchangeVolume
	for _, st := range p.stages {
		if st.kind != stageReshape {
			continue
		}
		rs := st.rs
		v := ExchangeVolume{Label: rs.label}
		if rs.group == nil {
			out = append(out, v)
			continue
		}
		v.GroupSize = rs.group.Size()
		web := WireElemSize(rs.wireOf(p.opts), 16)
		for k, gi := range rs.sendPeers {
			sb := web * rs.sends.at(k).Volume()
			if gi == rs.myGroupRank {
				v.SelfBytes += sb
				continue
			}
			v.SendBytes += sb
			v.NumDst++
			if sb > v.MaxMsg {
				v.MaxMsg = sb
			}
		}
		for k, gi := range rs.recvPeers {
			if gi != rs.myGroupRank {
				v.RecvBytes += web * rs.recvs.at(k).Volume()
			}
		}
		out = append(out, v)
	}
	return out
}
