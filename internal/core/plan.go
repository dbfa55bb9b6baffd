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
	for d := 0; d < 3; d++ {
		if cfg.Global[d] < 1 {
			return nil, fmt.Errorf("core: %w: invalid global grid %v", ErrBadConfig, cfg.Global)
		}
	}
	if cfg.Opts.ShrinkThreshold < 0 {
		return nil, fmt.Errorf("core: %w: negative shrink threshold %d", ErrBadConfig, cfg.Opts.ShrinkThreshold)
	}
	in, out, err := inOutDists(c, cfg.InBoxes, cfg.OutBoxes, cfg.Global, cfg.Global)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		engine: engine{comm: c, dev: gpu.New(c), opts: cfg.Opts, global: cfg.Global},
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
	p.p, p.q = cfg.Opts.PQ[0], cfg.Opts.PQ[1]
	if p.p <= 0 || p.q <= 0 {
		p.p, p.q = tensor.Square2D(p.lp)
	} else if p.p*p.q != p.lp {
		return nil, fmt.Errorf("core: %w: pencil grid %dx%d does not match %d active ranks", ErrBadConfig, p.p, p.q, p.lp)
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
	if err := p.buildStages(in, out); err != nil {
		return nil, err
	}
	p.abftEps = abftEpsOf(p.opts, p.stages)
	return p, nil
}

// buildStages constructs the reshape/compute pipeline. All ranks execute the
// same deterministic sequence, so the collective Split calls inside reshape
// construction stay matched. Every intermediate distribution comes through
// gridDist — over lp active ranks, padded with empty boxes to the communicator
// — so the world holds each list once.
func (p *Plan) buildStages(in, out *dist) error {
	c, me := p.comm, p.comm.Rank()
	ck := commKey(c)
	grid := func(g tensor.ProcGrid) *dist { return gridDist(c, p.global, g) }
	pencils := func(axis int) *dist { return grid(tensor.PencilGrid(axis, p.p, p.q)) }
	slabs := func(axis int) *dist { return grid(tensor.SlabGrid(axis, p.lp)) }

	cur := in
	p.dists = [][]tensor.Box3{in.boxes}
	// Seven stages at most (pencils, bricks), held by every rank's plan: sized
	// here so append does not round the array up to eight.
	p.stages = make([]stage, 0, 7)
	tagSeq := 0

	// interior marks reshapes strictly between compute stages, the ones
	// eligible for wire compression (input/output reshapes move caller data
	// and always ship full precision — see wire.go).
	addReshape := func(target *dist, label string, interior bool) {
		tagSeq++
		if sameDist(c, cur, target) {
			return
		}
		rs := buildReshape(c, ck, cur, target, label, tagSeq)
		rs.interior = interior
		p.stages = append(p.stages, stage{kind: stageReshape, label: "reshape " + label, rs: rs})
		cur = target
		p.dists = append(p.dists, target.boxes)
	}
	addFFT1D := func(axis int) {
		p.stages = append(p.stages, stage{
			kind: stageFFT1D, label: fmt.Sprintf("fft axis %d", axis),
			axis: axis, myBox: cur.boxes[me],
			// Resolve the 1-D kernel plan now so execution never takes the
			// plan-cache lock; twiddle tables are shared across all lookups.
			fplan: fft.NewPlan(p.global[axis]),
		})
		p.dists = append(p.dists, cur.boxes)
	}

	switch p.decomp {
	case DecompPencils:
		addReshape(pencils(0), "pencil-x", false)
		addFFT1D(0)
		addReshape(pencils(1), "pencil-y", true)
		addFFT1D(1)
		addReshape(pencils(2), "pencil-z", true)
		addFFT1D(2)
		addReshape(out, "output", false)

	case DecompBricks:
		// The brick variant (fftMPI/SWFFT style): intermediate grids are
		// derived from the 3-D brick grid (a, b, c), so each of the four
		// phases exchanges within smaller groups that share a coordinate of
		// the brick grid — cheaper phases at the price of more of them.
		a, b, c2 := p.brickGrid()
		addReshape(grid(tensor.NewProcGrid(1, a*b, c2)), "brick-x", false)
		addFFT1D(0)
		addReshape(grid(tensor.NewProcGrid(a, 1, b*c2)), "brick-y", true)
		addFFT1D(1)
		addReshape(grid(tensor.NewProcGrid(a*b, c2, 1)), "brick-z", true)
		addFFT1D(2)
		addReshape(out, "output", false)

	case DecompSlabs:
		// Slabs along axis 0: local 2-D FFTs over axes (1,2), one exchange
		// to slabs along axis 1, then 1-D FFTs along axis 0.
		addReshape(slabs(0), "slab-0", false)
		p.stages = append(p.stages, stage{
			kind: stageFFT2D, label: "fft planes", myBox: cur.boxes[me],
			// Both kernel plans now, for the same reason as in addFFT1D.
			fplan: fft.NewPlan(p.global[2]), fcols: fft.NewPlan(p.global[1]),
		})
		p.dists = append(p.dists, cur.boxes)
		addReshape(slabs(1), "slab-1", true)
		addFFT1D(0)
		addReshape(out, "output", false)

	default:
		return fmt.Errorf("core: %w: unresolved decomposition %v", ErrBadConfig, p.decomp)
	}
	return nil
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

// brickGrid returns the 3-D brick grid (a, b, c) over the active ranks used
// to derive the intermediate grids of the brick decomposition.
func (p *Plan) brickGrid() (a, b, c int) {
	g := tensor.MinSurfaceGrid(p.lp, p.global)
	return g.Dims[0], g.Dims[1], g.Dims[2]
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
