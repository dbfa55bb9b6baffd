package core

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/mpisim"
	"repro/internal/tensor"
)

// RealField is one rank's share of a distributed real-valued 3-D array — the
// input of real-to-complex transforms. Real elements are 8 bytes, so the
// input reshapes of an R2C plan move half the bytes of a complex transform;
// this is why the paper's comparisons (AccFFT's "large real-to-complex
// transforms", LAMMPS' charge grids) care about native R2C support.
type RealField struct {
	Box  tensor.Box3
	Data []float64 // nil for phantom fields
}

// NewRealField allocates a zero real field covering the box.
func NewRealField(b tensor.Box3) *RealField {
	return &RealField{Box: b, Data: make([]float64, b.Volume())}
}

// NewRealPhantom returns a size-only real field.
func NewRealPhantom(b tensor.Box3) *RealField {
	return &RealField{Box: b}
}

// Phantom reports whether the field carries no data.
func (f *RealField) Phantom() bool { return f.Data == nil }

// RealConfig describes a distributed real-to-complex transform.
type RealConfig struct {
	// Global is the real grid extents (N0, N1, N2); N2 must be even. The
	// real grid and the Hermitian half grid (N0, N1, N2/2+1) are distributed
	// as minimum-surface bricks.
	Global [3]int
	Opts   Options
}

// RealPlan is a collectively created distributed R2C/C2R plan. It executes on
// the same stage runner as Plan: the pipeline reshapes the real input to
// z-pencils (at 8 bytes/element), runs the local real-to-complex transform
// along axis 2 (the r2c stage), and continues with the complex pencil stages
// on the half grid; the inverse walks the mirrored list through a c2r stage.
type RealPlan struct {
	engine // global is the Hermitian half grid the complex stages transform

	inBox  tensor.Box3 // real grid
	outBox tensor.Box3 // half grid

	// stages is the forward pipeline, revStages the precomputed reversed one
	// used by InverseBatch — built once here so repeated inverse transforms
	// construct nothing.
	stages, revStages []stage

	p, q int
}

// NewRealPlan collectively creates an R2C plan; all ranks pass identical
// RealConfig.
func NewRealPlan(c *mpisim.Comm, cfg RealConfig) (*RealPlan, error) {
	// A real-to-complex plan always computes on z-pencils over every rank.
	if err := checkConfig(cfg.Global, cfg.Opts, realPlan); err != nil {
		return nil, err
	}
	half := [3]int{cfg.Global[0], cfg.Global[1], cfg.Global[2]/2 + 1}

	in, out, err := inOutDists(c, nil, nil, cfg.Global, half)
	if err != nil {
		return nil, err
	}

	p := &RealPlan{
		engine: engine{comm: c, dev: gpu.New(c), opts: cfg.Opts, caps: &backends[cfg.Opts.Backend], global: half, decomp: DecompPencils},
		inBox:  in.boxes[c.Rank()],
		outBox: out.boxes[c.Rank()],
	}
	if p.p, p.q, err = pencilGrid(cfg.Opts.PQ, c.Size()); err != nil {
		return nil, err
	}
	rp, err := fft.NewRealPlan(cfg.Global[2])
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrBadConfig, err)
	}

	// Real z-pencils and their half-grid shadows share the P×Q grid, so the
	// r2c stage is purely local.
	me := c.Rank()
	pencils := func(global [3]int, axis int) *dist { return gridDist(c, global, tensor.PencilGrid(axis, p.p, p.q)) }
	zReal, zHalf := pencils(cfg.Global, 2), pencils(half, 2)

	// The input reshape moves real data (half the bytes of a complex reshape)
	// and is built even when the input already sits on z-pencils. Its tag must
	// not collide with the complex-stage tags, allocated from 911 upward.
	b := &stageBuilder{c: c, ck: commKey(c), global: half, cur: zHalf, tag: 910, stages: make([]stage, 0, 7)}
	b.stages = append(b.stages,
		stage{kind: stageReshape, label: "reshape r2c-input", rs: buildReshape(c, b.ck, in, zReal, "r2c-input", 901)},
		stage{kind: stageR2C, label: "r2c axis 2", myBox: zReal.boxes[me], specBox: zHalf.boxes[me], rplan: rp},
	)

	// Complex pipeline on the half grid: z-pencils → y FFT → x FFT → out.
	// The two pencil reshapes sit strictly between compute stages (the local
	// r2c/c2r counts as one on the input side), so they are wire-compressible
	// in both directions; the output reshape moves caller data.
	b.reshape(pencils(half, 1), "r2c-pencil-y", true)
	b.fft1D(1)
	b.reshape(pencils(half, 0), "r2c-pencil-x", true)
	b.fft1D(0)
	b.reshape(out, "r2c-output", false)
	p.stages = b.stages
	p.abftEps = abftEpsOf(p.opts, p.stages)

	// Precompute the reversed pipeline for InverseBatch: reshapes swap source
	// and destination, the r2c stage becomes c2r.
	p.revStages = make([]stage, 0, len(p.stages))
	for i := len(p.stages) - 1; i >= 0; i-- {
		st := p.stages[i]
		switch st.kind {
		case stageReshape:
			st.label += "-rev"
			st.rs = reverseReshape(st.rs)
		case stageR2C:
			st.kind, st.label = stageC2R, "c2r axis 2"
		}
		p.revStages = append(p.revStages, st)
	}
	return p, nil
}

// InBox returns this rank's real-grid input box; OutBox the half-grid output
// box.
func (p *RealPlan) InBox() tensor.Box3  { return p.inBox }
func (p *RealPlan) OutBox() tensor.Box3 { return p.outBox }

// HalfGlobal returns the Hermitian half-grid extents (N0, N1, N2/2+1).
func (p *RealPlan) HalfGlobal() [3]int { return p.global }

// Forward transforms a real field into its half-spectrum, returned as a
// complex field distributed over the half-grid bricks.
func (p *RealPlan) Forward(rf *RealField) (*Field, error) {
	fs, err := p.ForwardBatch([]*RealField{rf})
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// ForwardBatch transforms a batch of real fields through fused exchanges,
// like Plan.ForwardBatch (the Fig. 13 batching feature, here for R2C). The
// input fields are consumed: the runner moves them to z-pencils in place and
// the r2c stage takes that array back, leaving them without data. The arrays
// of the returned fields follow Field's rule: valid until the fields' next
// transform — handing them to InverseBatch lets the plan reuse them.
func (p *RealPlan) ForwardBatch(rfs []*RealField) ([]*Field, error) {
	b := batch{reals: rfs, fields: make([]*Field, len(rfs)), real: true}
	if err := p.run(p.stages, &b, fft.Forward, 0, batchFused); err != nil {
		return nil, err
	}
	return b.fields, nil
}

// Inverse transforms a half-spectrum field (distributed over the half-grid
// bricks) back to a real field over the real-grid bricks, scaled so
// Inverse(Forward(x)) == x.
func (p *RealPlan) Inverse(f *Field) (*RealField, error) {
	rfs, err := p.InverseBatch([]*Field{f})
	if err != nil {
		return nil, err
	}
	return rfs[0], nil
}

// InverseBatch is the batched complex-to-real transform. It consumes its input
// fields as ForwardBatch does.
func (p *RealPlan) InverseBatch(fields []*Field) ([]*RealField, error) {
	b := batch{fields: fields, reals: make([]*RealField, len(fields))}
	if err := p.run(p.revStages, &b, fft.Inverse, 0, batchFused); err != nil {
		return nil, err
	}
	return b.reals, nil
}

// reverseReshape returns the reshape with source and destination swapped.
// The group is the same; the box roles flip, so the send and receive sides of
// the shared overlap table trade places. The interior flag carries over: a
// reshape between compute stages stays between compute stages in the reversed
// pipeline. So do the exchange statistics — pairs, volumes, rows and node
// counts read the same in both directions — while the schedule is selected
// over the transposed byte matrix (reversed), into a resolve table of the
// copy's own.
func reverseReshape(rs *reshapePlan) *reshapePlan {
	return &reshapePlan{
		label: rs.label + "-rev", tag: rs.tag + 50,
		from: rs.to, to: rs.from, interior: rs.interior,
		group: rs.group, myGroupRank: rs.myGroupRank,
		sendPeers: rs.recvPeers, sends: rs.recvs, selfSend: rs.selfRecv,
		recvPeers: rs.sendPeers, recvs: rs.sends, selfRecv: rs.selfSend,
		stats: rs.stats, tab: rs.tab, root: rs.root, reversed: !rs.reversed,
	}
}
