package core

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/topo"
)

// Golden virtual-clock and payload fingerprints. Every row runs one
// configuration end to end and keeps two FNV-64a values: the clock hash folds
// every rank's clock after each call and its final clock, the payload hash
// every output element (math.Float64bits, rank order). A Class A row (the
// virtual-clock contract of EXPERIMENTS.md) must never change; a Class B row
// changes once, in the commit that moves it, whose message lists every
// regenerated row before → after. A payload-only event (a kernel that rounds
// differently) moves payload hashes and must leave the clock column
// byte-identical.

type fpHash struct{ clock, data hash.Hash64 }

func newFPHash() fpHash { return fpHash{fnv.New64a(), fnv.New64a()} }

func put64(h hash.Hash64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// at records a clock reading.
func (f fpHash) at(clock float64) { put64(f.clock, clock) }

func (f fpHash) complexes(d []complex128) {
	for _, v := range d {
		put64(f.data, real(v))
		put64(f.data, imag(v))
	}
}

func (f fpHash) reals(d []float64) {
	for _, v := range d {
		put64(f.data, v)
	}
}

// fpSums is one row of the golden table.
type fpSums struct{ clock, payload uint64 }

// fpCheck reports each column of a row that differs from the table.
func fpCheck(t *testing.T, name string, got fpSums) {
	t.Helper()
	want, ok := fpWant[name]
	if !ok {
		t.Errorf("fingerprint %q: no golden row; got {0x%016x, 0x%016x}", name, got.clock, got.payload)
		return
	}
	if got.clock != want.clock {
		t.Errorf("fingerprint %q: clock 0x%016x, want 0x%016x", name, got.clock, want.clock)
	}
	if got.payload != want.payload {
		t.Errorf("fingerprint %q: payload 0x%016x, want 0x%016x", name, got.payload, want.payload)
	}
}

// fpFill fills a batch entry's local array reproducibly per (rank, entry).
func fpFill(d []complex128, rank, entry int) {
	rng := rand.New(rand.NewSource(int64(1000*rank + entry + 1)))
	for i := range d {
		d[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
}

func fpFillReal(d []float64, rank, entry int) {
	rng := rand.New(rand.NewSource(int64(1000*rank + entry + 1)))
	for i := range d {
		d[i] = rng.NormFloat64()
	}
}

// fpRun selects the entry points a row drives: a forward then an inverse call
// on the same fields, both folded into the fingerprint.
type fpRun int

const (
	fpBatch     fpRun = iota // ForwardBatch + InverseBatch
	fpPipelined              // ForwardPipelined + InversePipelined
	fpReal                   // RealPlan.ForwardBatch + InverseBatch
)

type fpCase struct {
	name    string
	ranks   int
	global  [3]int
	opts    Options
	world   mpisim.Options
	batch   int
	phantom bool
	run     fpRun
}

var (
	fpUneven = [3]int{13, 10, 9}
	fpSmall  = [3]int{8, 12, 10}
	fpCube   = [3]int{16, 16, 16}
)

func fpCases() []fpCase {
	aware := mpisim.Options{GPUAware: true}
	staged := mpisim.Options{}
	integ := func(ck, inv bool) mpisim.Options {
		return mpisim.Options{GPUAware: true, Integrity: mpisim.IntegrityConfig{Checksums: ck, Invariants: inv}}
	}
	pencilV := Options{Decomp: DecompPencils, Backend: BackendAlltoallv}
	with := func(o Options, cc CommConfig) Options { o.Comm = cc; return o }

	var cs []fpCase
	// 3 decompositions × 5 backends (Class A).
	for _, d := range []Decomposition{DecompSlabs, DecompPencils, DecompBricks} {
		for _, b := range []Backend{BackendAlltoallv, BackendAlltoall, BackendAlltoallw, BackendP2P, BackendP2PBlocking} {
			cs = append(cs, fpCase{name: d.String() + "/" + b.String(), ranks: 6, global: fpSmall,
				opts: Options{Decomp: d, Backend: b}, world: aware, batch: 1})
		}
	}
	// Forced and automatic collective schedules on two Summit nodes (Class A).
	for _, a := range []CollAlgo{CollAuto, CollLinear, CollPairwise, CollRing, CollBruck, CollNodeAware} {
		cs = append(cs, fpCase{name: "algo/" + a.String(), ranks: 12, global: fpCube,
			opts: with(pencilV, CommConfig{Algo: a}), world: aware, batch: 1})
	}
	// Chunked exchanges: serial and overlapped, GPU-aware and host-staged (Class A).
	for _, st := range []struct {
		tag string
		w   mpisim.Options
	}{{"aware", aware}, {"staged", staged}} {
		cs = append(cs,
			fpCase{name: "chunks1/" + st.tag, ranks: 12, global: fpCube, opts: with(pencilV, CommConfig{Chunks: 1}), world: st.w, batch: 1},
			fpCase{name: "chunks3-overlap/" + st.tag, ranks: 12, global: fpCube, opts: with(pencilV, CommConfig{Chunks: 3}), world: st.w, batch: 1},
			fpCase{name: "chunks3-serial/" + st.tag, ranks: 12, global: fpCube, opts: with(pencilV, CommConfig{Chunks: 3, Overlap: OverlapOff}), world: st.w, batch: 1},
		)
	}
	cs = append(cs,
		// Auto policy on a staged 256³ phantom: CollAuto + 4 auto chunks (Class A).
		fpCase{name: "staged-auto-phantom256", ranks: 12, global: [3]int{256, 256, 256}, opts: pencilV, world: staged, batch: 1, phantom: true},
		fpCase{name: "staged-p2p", ranks: 12, global: fpCube, opts: Options{Decomp: DecompPencils, Backend: BackendP2P}, world: staged, batch: 2},
		fpCase{name: "staged-alltoallw", ranks: 6, global: fpSmall, opts: Options{Decomp: DecompSlabs, Backend: BackendAlltoallw}, world: staged, batch: 1},
		fpCase{name: "round-robin", ranks: 12, global: fpCube, opts: pencilV,
			world: mpisim.Options{GPUAware: true, Placement: topo.RoundRobin()}, batch: 1},
		fpCase{name: "round-robin/node-aware", ranks: 12, global: fpCube, opts: with(pencilV, CommConfig{Algo: CollNodeAware}),
			world: mpisim.Options{GPUAware: true, Placement: topo.RoundRobin()}, batch: 1},
		// Integrity layers (Class A on the batch path).
		fpCase{name: "integrity/off", ranks: 6, global: fpCube, opts: pencilV, world: integ(false, false), batch: 1},
		fpCase{name: "integrity/checksums", ranks: 6, global: fpCube, opts: pencilV, world: integ(true, false), batch: 1},
		fpCase{name: "integrity/invariants", ranks: 6, global: fpCube, opts: pencilV, world: integ(false, true), batch: 1},
		fpCase{name: "integrity/both", ranks: 6, global: fpCube, opts: pencilV, world: integ(true, true), batch: 1},
		fpCase{name: "integrity/invariants/batch4/chunks2", ranks: 6, global: fpCube, opts: with(pencilV, CommConfig{Chunks: 2}), world: integ(false, true), batch: 4},
		fpCase{name: "integrity/invariants/p2p/slabs", ranks: 6, global: fpSmall, opts: Options{Decomp: DecompSlabs, Backend: BackendP2P}, world: integ(false, true), batch: 2},
		fpCase{name: "integrity/both/alltoall", ranks: 6, global: fpSmall, opts: Options{Decomp: DecompBricks, Backend: BackendAlltoall}, world: integ(true, true), batch: 1},
		// Batches (Class A: the Fig. 13 charge-one-hide-the-rest accounting).
		fpCase{name: "batch4/alltoallv", ranks: 6, global: fpCube, opts: pencilV, world: aware, batch: 4},
		fpCase{name: "batch4/p2p", ranks: 6, global: fpCube, opts: Options{Decomp: DecompPencils, Backend: BackendP2P}, world: aware, batch: 4},
		fpCase{name: "batch3/slabs/alltoall", ranks: 6, global: fpSmall, opts: Options{Decomp: DecompSlabs, Backend: BackendAlltoall}, world: aware, batch: 3},
		fpCase{name: "batch2/phantom", ranks: 12, global: fpCube, opts: pencilV, world: aware, batch: 2, phantom: true},
		// Compressed wire: single-shot is Class A; the chunked rows are Class B
		// (iii) — unpack/convert charge order, ≤ 1e-12 relative on the clock.
		fpCase{name: "wire/fp32", ranks: 6, global: fpCube, opts: with(pencilV, CommConfig{Wire: WireFp32}), world: staged, batch: 1},
		fpCase{name: "wire/fp16/p2p", ranks: 6, global: fpCube, opts: Options{Decomp: DecompPencils, Backend: BackendP2P, Comm: CommConfig{Wire: WireFp16}}, world: aware, batch: 1},
		fpCase{name: "wire/fp32/invariants", ranks: 6, global: fpCube, opts: with(pencilV, CommConfig{Wire: WireFp32}), world: integ(false, true), batch: 2},
		fpCase{name: "wire/fp32/chunks3-overlap", ranks: 6, global: fpCube, opts: with(pencilV, CommConfig{Wire: WireFp32, Chunks: 3}), world: staged, batch: 1},
		fpCase{name: "wire/fp32/chunks3-serial", ranks: 6, global: fpCube, opts: with(pencilV, CommConfig{Wire: WireFp32, Chunks: 3, Overlap: OverlapOff}), world: staged, batch: 1},
		// Geometry corners (Class A).
		fpCase{name: "uneven/pencils", ranks: 6, global: fpUneven, opts: pencilV, world: aware, batch: 1},
		fpCase{name: "uneven/bricks/p2p", ranks: 7, global: fpUneven, opts: Options{Decomp: DecompBricks, Backend: BackendP2P}, world: aware, batch: 2},
		fpCase{name: "uneven/chunks3", ranks: 6, global: fpUneven, opts: with(pencilV, CommConfig{Chunks: 3}), world: staged, batch: 1},
		fpCase{name: "contiguous", ranks: 6, global: fpSmall, opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, Contiguous: true}, world: aware, batch: 1},
		fpCase{name: "shrink", ranks: 8, global: [3]int{8, 8, 8}, opts: Options{Decomp: DecompPencils, Backend: BackendAlltoallv, ShrinkThreshold: 128}, world: aware, batch: 1},
		// RealPlan, batch 1, integrity off (Class A).
		fpCase{name: "real/alltoallv", ranks: 6, global: fpSmall, opts: Options{Backend: BackendAlltoallv}, world: aware, batch: 1, run: fpReal},
		fpCase{name: "real/p2p", ranks: 6, global: fpSmall, opts: Options{Backend: BackendP2P}, world: staged, batch: 1, run: fpReal},
		fpCase{name: "real/alltoallw/phantom", ranks: 6, global: fpCube, opts: Options{Backend: BackendAlltoallw}, world: aware, batch: 1, run: fpReal, phantom: true},
		// Class B (ii): RealPlan batches > 1 and RealPlan under invariants.
		fpCase{name: "real/p2p/batch4", ranks: 6, global: fpCube, opts: Options{Backend: BackendP2P}, world: staged, batch: 4, run: fpReal},
		fpCase{name: "real/alltoallv/invariants", ranks: 6, global: fpCube, opts: Options{Backend: BackendAlltoallv}, world: integ(false, true), batch: 1, run: fpReal},
		// Class B (i): per-entry-async execution.
		fpCase{name: "pipelined/aware/batch3", ranks: 12, global: fpCube, opts: pencilV, world: aware, batch: 3, run: fpPipelined},
		fpCase{name: "pipelined/staged/batch4", ranks: 12, global: fpCube, opts: pencilV, world: staged, batch: 4, run: fpPipelined},
		fpCase{name: "pipelined/slabs/batch2", ranks: 6, global: fpSmall, opts: Options{Decomp: DecompSlabs, Backend: BackendAlltoallv}, world: aware, batch: 2, run: fpPipelined},
		fpCase{name: "pipelined/invariants/batch2", ranks: 6, global: fpCube, opts: pencilV, world: integ(false, true), batch: 2, run: fpPipelined},
	)
	return cs
}

// fpWant is the golden table: {clock, payload} per row.
var fpWant = map[string]fpSums{
	"slabs/alltoallv":                     {0xd32dcf24b24fe48d, 0x43d7de331e40ec64},
	"slabs/alltoall":                      {0x8d270cd4f7fff00d, 0x43d7de331e40ec64},
	"slabs/alltoallw":                     {0x2b620a9c318fcb25, 0x43d7de331e40ec64},
	"slabs/p2p":                           {0x3de89d11fbb63a45, 0x43d7de331e40ec64},
	"slabs/p2p-blocking":                  {0x67023f05e1107fd9, 0x43d7de331e40ec64},
	"pencils/alltoallv":                   {0xca311a13f05dd682, 0x619271414da2b212},
	"pencils/alltoall":                    {0xbb7173de8adaf7b5, 0x619271414da2b212},
	"pencils/alltoallw":                   {0x372f347e5072a145, 0x619271414da2b212},
	"pencils/p2p":                         {0x0afaf842212ef7dd, 0x619271414da2b212},
	"pencils/p2p-blocking":                {0xa6166222c4a759df, 0x619271414da2b212},
	"bricks/alltoallv":                    {0x8abcd20e602092a5, 0x619271414da2b212},
	"bricks/alltoall":                     {0xf93b55b4eca3ed58, 0x619271414da2b212},
	"bricks/alltoallw":                    {0xbc010cd2dda8c499, 0x619271414da2b212},
	"bricks/p2p":                          {0x94d70eb43c729cb8, 0x619271414da2b212},
	"bricks/p2p-blocking":                 {0xdbc10b37d4ac3a0e, 0x619271414da2b212},
	"algo/auto":                           {0x81d6cb4f68543f70, 0x4dedc929ea22bf96},
	"algo/linear":                         {0x5334fc8bdba96afa, 0x4dedc929ea22bf96},
	"algo/pairwise":                       {0x96c28f5b493b6d9a, 0x4dedc929ea22bf96},
	"algo/ring":                           {0x81d6cb4f68543f70, 0x4dedc929ea22bf96},
	"algo/bruck":                          {0x2712b0cf9d3d3213, 0x4dedc929ea22bf96},
	"algo/node-aware":                     {0x670fd61de6a74441, 0x4dedc929ea22bf96},
	"chunks1/aware":                       {0x81d6cb4f68543f70, 0x4dedc929ea22bf96},
	"chunks3-overlap/aware":               {0x3e09b91da31f8ffa, 0x4dedc929ea22bf96},
	"chunks3-serial/aware":                {0xee68283c8a5f14e1, 0x4dedc929ea22bf96},
	"chunks1/staged":                      {0xf4bb06bc8d7e4279, 0x4dedc929ea22bf96},
	"chunks3-overlap/staged":              {0x3fd6d57ac4c92278, 0x4dedc929ea22bf96},
	"chunks3-serial/staged":               {0x029f127022b110a2, 0x4dedc929ea22bf96},
	"staged-auto-phantom256":              {0xac09e431c39079eb, 0x14d6c02c8d5f3425},
	"staged-p2p":                          {0xf33dfba6c1dda246, 0xc03214f09e276e9f},
	"staged-alltoallw":                    {0x2b620a9c318fcb25, 0x43d7de331e40ec64},
	"round-robin":                         {0xc8290219d35fe941, 0x4dedc929ea22bf96},
	"round-robin/node-aware":              {0x979c61767d46bc09, 0x4dedc929ea22bf96},
	"integrity/off":                       {0x6ed8072b10b6f46c, 0xcc1f1cbe5146686a},
	"integrity/checksums":                 {0x989caa8a64d98378, 0xcc1f1cbe5146686a},
	"integrity/invariants":                {0x06a80fdfcd3ee6d0, 0xcc1f1cbe5146686a},
	"integrity/both":                      {0xbbcef44eb0b1edea, 0xcc1f1cbe5146686a},
	"integrity/invariants/batch4/chunks2": {0xd87a1810a59e2a12, 0xe5d3fd29627800f7},
	"integrity/invariants/p2p/slabs":      {0xd2d5d7b1075ddaf5, 0xa14af3057ec114d7},
	"integrity/both/alltoall":             {0xc093a538a07dd3b5, 0x619271414da2b212},
	"batch4/alltoallv":                    {0xac33480c003aa884, 0xe5d3fd29627800f7},
	"batch4/p2p":                          {0xbfdbd3229946dc40, 0xe5d3fd29627800f7},
	"batch3/slabs/alltoall":               {0x6b8485030ae7f0e1, 0x3ac555ef315b89e3},
	"batch2/phantom":                      {0x967a00518a9a6234, 0x14d6c02c8d5f3425},
	"wire/fp32":                           {0xe8a2eeae9e398d26, 0x0094fc12a257ab09},
	"wire/fp16/p2p":                       {0x9be778e0320bfe41, 0x2605ca860c021f2c},
	"wire/fp32/invariants":                {0x0375956ef0eb914d, 0xa23ef76b3a553dfc},
	"wire/fp32/chunks3-overlap":           {0xc3554140f89d82c5, 0x0094fc12a257ab09},
	"wire/fp32/chunks3-serial":            {0xd29179257551266c, 0x0094fc12a257ab09},
	"uneven/pencils":                      {0x24246b7b55f85145, 0x6aec70aa49c97404},
	"uneven/bricks/p2p":                   {0xf942b7ac0dbe8c62, 0xfb758c8c0dc35404},
	"uneven/chunks3":                      {0x84cd82fad90bd9a3, 0x6aec70aa49c97404},
	"contiguous":                          {0x757f221d7ea98961, 0x619271414da2b212},
	"shrink":                              {0x467689c7990c516d, 0xf426264834295c58},
	"real/alltoallv":                      {0x9a80ad0c5e318a18, 0xf619de2795016bb9},
	"real/p2p":                            {0xbfa56d8c04dc1375, 0xf619de2795016bb9},
	"real/alltoallw/phantom":              {0xd81b02da17019a44, 0x987bb05229ae5ba5},
	"real/p2p/batch4":                     {0x7735107381e6bbd7, 0x5691f3213a034719},
	"real/alltoallv/invariants":           {0x5868a74427715707, 0xe8fc6074aff24800},
	"pipelined/aware/batch3":              {0x3991f722f7a0e401, 0x764faf34cd51fdd0},
	"pipelined/staged/batch4":             {0xc37950c48d85bcec, 0xa7b4eb04089d7ab3},
	"pipelined/slabs/batch2":              {0x5bac5adf140fc9e5, 0xa14af3057ec114d7},
	"pipelined/invariants/batch2":         {0xbfe47e67f04a7f53, 0x62845a0039a012ff},
	"fault/degrade":                       {0x4ba09260c5bb2267, 0x62845a0039a012ff},
	"fault/degrade/chunks3":               {0x7648b51937ea3e73, 0xcc1f1cbe5146686a},
	"fault/brick-flip-healed":             {0x2c139f2fa7b0917a, 0x62845a0039a012ff},
	"fault/wire-flip-retransmit":          {0xdd282a40cbb6a0de, 0xcc1f1cbe5146686a},
	"resume/survivors":                    {0xef32271aaa1926d2, 0x26dda3dfc8927d56},
}

// fpExecute runs one row and returns its fingerprints.
func fpExecute(t *testing.T, c fpCase) fpSums {
	t.Helper()
	w := mpisim.NewWorld(machine.Summit(), c.ranks, c.world)
	outs := make([]fpHash, c.ranks)
	res := w.Run(func(cm *mpisim.Comm) {
		h := newFPHash()
		outs[cm.Rank()] = h
		if c.run == fpReal {
			fpRunReal(t, cm, c, h)
			return
		}
		p, err := NewPlan(cm, Config{Global: c.global, Opts: c.opts})
		if err != nil {
			t.Errorf("%s: NewPlan: %v", c.name, err)
			return
		}
		fields := make([]*Field, c.batch)
		for i := range fields {
			if c.phantom {
				fields[i] = NewPhantom(p.InBox())
				continue
			}
			fields[i] = NewField(p.InBox())
			fpFill(fields[i].Data, cm.Rank(), i)
		}
		fwd, inv := p.ForwardBatch, p.InverseBatch
		if c.run == fpPipelined {
			fwd, inv = p.ForwardPipelined, p.InversePipelined
		}
		for _, call := range []func([]*Field) error{fwd, inv} {
			if err := call(fields); err != nil {
				t.Errorf("%s: rank %d: %v", c.name, cm.Rank(), err)
				return
			}
			h.at(cm.Clock())
			for _, f := range fields {
				h.complexes(f.Data)
			}
		}
	})
	if res.Err != nil {
		t.Fatalf("%s: world failed: %v", c.name, res.Err)
	}
	t.Logf("%s: makespan %.9g µs", c.name, res.MaxClock*1e6)
	return fpFold(outs, res.Clocks)
}

func fpRunReal(t *testing.T, cm *mpisim.Comm, c fpCase, h fpHash) {
	p, err := NewRealPlan(cm, RealConfig{Global: c.global, Opts: c.opts})
	if err != nil {
		t.Errorf("%s: NewRealPlan: %v", c.name, err)
		return
	}
	rfs := make([]*RealField, c.batch)
	for i := range rfs {
		if c.phantom {
			rfs[i] = NewRealPhantom(p.InBox())
			continue
		}
		rfs[i] = NewRealField(p.InBox())
		fpFillReal(rfs[i].Data, cm.Rank(), i)
	}
	spec, err := p.ForwardBatch(rfs)
	if err != nil {
		t.Errorf("%s: rank %d: forward: %v", c.name, cm.Rank(), err)
		return
	}
	h.at(cm.Clock())
	for _, f := range spec {
		h.complexes(f.Data)
	}
	back, err := p.InverseBatch(spec)
	if err != nil {
		t.Errorf("%s: rank %d: inverse: %v", c.name, cm.Rank(), err)
		return
	}
	h.at(cm.Clock())
	for _, f := range back {
		h.reals(f.Data)
	}
}

// fpFold combines the per-rank hashes and final clocks in rank order.
func fpFold(outs []fpHash, clocks []float64) fpSums {
	clock, data := fnv.New64a(), fnv.New64a()
	for r, h := range outs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], h.clock.Sum64())
		clock.Write(b[:])
		put64(clock, clocks[r])
		binary.LittleEndian.PutUint64(b[:], h.data.Sum64())
		data.Write(b[:])
	}
	return fpSums{clock.Sum64(), data.Sum64()}
}

func TestGoldenFingerprints(t *testing.T) {
	for _, c := range fpCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fpCheck(t, c.name, fpExecute(t, c))
		})
	}
}

// TestGoldenFingerprintFaults pins the clocks of fault-perturbed executions on
// the batch path (Class A): a degraded link, and a silent brick flip healed by
// ABFT phase re-execution.
func TestGoldenFingerprintFaults(t *testing.T) {
	pencilV := Options{Decomp: DecompPencils, Backend: BackendAlltoallv}
	rows := []fpCase{
		{name: "fault/degrade", ranks: 6, global: fpCube, opts: pencilV, batch: 2,
			world: mpisim.Options{GPUAware: true, Faults: &faults.Plan{Events: []faults.Event{
				{Kind: faults.Degrade, Rank: 2, Op: 1, Factor: 3, Count: 2}}}}},
		{name: "fault/degrade/chunks3", ranks: 6, global: fpCube, opts: Options{Decomp: DecompPencils, Comm: CommConfig{Chunks: 3, Algo: CollPairwise}}, batch: 1,
			world: mpisim.Options{Faults: &faults.Plan{Events: []faults.Event{
				{Kind: faults.Degrade, Rank: 1, Op: 2, Factor: 2.5, Count: 3}}}}},
		{name: "fault/brick-flip-healed", ranks: 6, global: fpCube, opts: pencilV, batch: 2,
			world: mpisim.Options{GPUAware: true, Integrity: mpisim.IntegrityConfig{Invariants: true},
				Faults: &faults.Plan{Events: []faults.Event{
					{Kind: faults.CorruptSilent, Rank: 3, Op: 1, Count: 1, Brick: true}}}}},
		{name: "fault/wire-flip-retransmit", ranks: 6, global: fpCube, opts: pencilV, batch: 1,
			world: mpisim.Options{GPUAware: true, Integrity: mpisim.IntegrityConfig{Checksums: true},
				Faults: &faults.Plan{Events: []faults.Event{
					{Kind: faults.CorruptSilent, Rank: 4, Op: 1, Count: 1}}}}},
	}
	for _, c := range rows {
		c := c
		t.Run(c.name, func(t *testing.T) {
			fpCheck(t, c.name, fpExecute(t, c))
		})
	}
}

// TestGoldenFingerprintResume pins ResumeBatch (Class A): a mid-pipeline kill,
// a shrink to the survivors, and the resumed batch's clocks and payload. The
// input is already slab-distributed, so the first exchange is the all-rank
// slab-0 → slab-1 reshape: every rank runs its local work up to that
// rendezvous and stops there, which makes the checkpoint cut ("fft planes")
// — and with it the survivors' clocks — independent of goroutine scheduling.
func TestGoldenFingerprintResume(t *testing.T) {
	n := [3]int{8, 8, 8}
	const size, batch = 4, 2
	store := NewCheckpointStore()
	cfg := Config{Global: n, InBoxes: slabBoxes(n, 0, size), Opts: Options{Decomp: DecompSlabs, Checkpoints: store}}
	fp := &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Kill, Rank: 2, Op: 0}}}
	w := mpisim.NewWorld(machine.Summit(), size, mpisim.Options{GPUAware: true, Faults: fp,
		Integrity: mpisim.IntegrityConfig{Invariants: true}})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			t.Errorf("NewPlan: %v", err)
			return
		}
		fields := make([]*Field, batch)
		for i := range fields {
			fields[i] = NewField(p.InBox())
			fpFill(fields[i].Data, c.Rank(), i)
		}
		if err := p.ForwardBatch(fields); !errors.Is(err, mpisim.ErrRankFailed) {
			t.Errorf("rank %d: err = %v, want ErrRankFailed", c.Rank(), err)
		}
	})
	if !errors.Is(res.Err, mpisim.ErrRankFailed) {
		t.Fatalf("Result.Err = %v, want ErrRankFailed", res.Err)
	}
	nw, err := w.Shrink()
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	outs := make([]fpHash, nw.Size())
	res = nw.Run(func(c *mpisim.Comm) {
		h := newFPHash()
		outs[c.Rank()] = h
		p, err := NewPlan(c, Config{Global: n, Opts: Options{Decomp: store.Decomp(), Checkpoints: store}})
		if err != nil {
			t.Errorf("survivor NewPlan: %v", err)
			return
		}
		fields, err := p.ResumeBatch()
		if err != nil {
			t.Errorf("rank %d: ResumeBatch: %v", c.Rank(), err)
			return
		}
		for _, f := range fields {
			h.complexes(f.Data)
		}
	})
	if res.Err != nil {
		t.Fatalf("resume world failed: %v", res.Err)
	}
	fpCheck(t, "resume/survivors", fpFold(outs, res.Clocks))
}
