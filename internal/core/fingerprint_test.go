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

// Golden virtual-clock + payload fingerprints. Every row runs one
// configuration end to end and folds every rank's final clock and every output
// element (math.Float64bits, rank order) into one FNV-64a value. The table was
// generated on the tree before the executor/exchange/engine merge: a Class A
// row (the virtual-clock contract of EXPERIMENTS.md) must never change; a
// Class B row changes once, in the commit that moves it, whose message lists
// every regenerated row before → after.

type fpHash struct{ h hash.Hash64 }

func newFPHash() fpHash { return fpHash{fnv.New64a()} }

func (f fpHash) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	f.h.Write(b[:])
}

func (f fpHash) complexes(d []complex128) {
	for _, v := range d {
		f.f64(real(v))
		f.f64(imag(v))
	}
}

func (f fpHash) reals(d []float64) {
	for _, v := range d {
		f.f64(v)
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

// fpWant is the golden table.
var fpWant = map[string]uint64{
	"slabs/alltoallv":                     0xdce50db566a3ec53,
	"slabs/alltoall":                      0xf043172dcdaf3f8e,
	"slabs/alltoallw":                     0xe3ef151646efa0e1,
	"slabs/p2p":                           0xbf8138b4dbdf5fe6,
	"slabs/p2p-blocking":                  0x4abc45b4a083b338,
	"pencils/alltoallv":                   0x8f134953b49941d3,
	"pencils/alltoall":                    0x8a2b6bd06ee59045,
	"pencils/alltoallw":                   0x1f64c4590180e5c4,
	"pencils/p2p":                         0x9e18881c19777e6b,
	"pencils/p2p-blocking":                0xcb02984b49c94f2d,
	"bricks/alltoallv":                    0x5da5e681458bd5dc,
	"bricks/alltoall":                     0x7876670e8dbb2873,
	"bricks/alltoallw":                    0xd8fb7f7e900f03d9,
	"bricks/p2p":                          0xa753fa0e1989a821,
	"bricks/p2p-blocking":                 0x043af2c3e56d0b1a,
	"algo/auto":                           0xa60182687a57eeae,
	"algo/linear":                         0x7d1e71195ace39fb,
	"algo/pairwise":                       0x92979fdcdb108b3d,
	"algo/ring":                           0xa60182687a57eeae,
	"algo/bruck":                          0xcd921386de5ffb2b,
	"algo/node-aware":                     0xc4d7031d845145d6,
	"chunks1/aware":                       0xa60182687a57eeae,
	"chunks3-overlap/aware":               0x1ec6c09a9d63bc66,
	"chunks3-serial/aware":                0xd054e1805b40a38a,
	"chunks1/staged":                      0xb9c48582c160dc70,
	"chunks3-overlap/staged":              0x9ff0f4e747284cdd,
	"chunks3-serial/staged":               0x7b8d94f8313a6036,
	"staged-auto-phantom256":              0xac09e431c39079eb,
	"staged-p2p":                          0xfc970f6216e51bcd,
	"staged-alltoallw":                    0xe3ef151646efa0e1,
	"round-robin":                         0xa373dabd8091b964,
	"round-robin/node-aware":              0x644e612ce53b6049,
	"integrity/off":                       0xb92db78d52c6055c,
	"integrity/checksums":                 0x4a7e07cc69f84941,
	"integrity/invariants":                0x6ed548f2175ffdc0,
	"integrity/both":                      0xd4b5068f6934c203,
	"integrity/invariants/batch4/chunks2": 0x6d77879fe5c8f103,
	"integrity/invariants/p2p/slabs":      0x8c593c3fc16b9041,
	"integrity/both/alltoall":             0x31297496ecfd8a20,
	"batch4/alltoallv":                    0xd1f124df472b2e92,
	"batch4/p2p":                          0x227143989a198e52,
	"batch3/slabs/alltoall":               0x79dcc3f99269b69b,
	"batch2/phantom":                      0x967a00518a9a6234,
	"wire/fp32":                           0xc9e9d55e480cc1f3,
	"wire/fp16/p2p":                       0x55efc933cff1d468,
	"wire/fp32/invariants":                0xfe6ff7952d470f73,
	"wire/fp32/chunks3-overlap":           0x431956d54640cbf6,
	"wire/fp32/chunks3-serial":            0xe88a8e4211490979,
	"uneven/pencils":                      0x8edcee6a7e01b21e,
	"uneven/bricks/p2p":                   0xbc6659e8be23aafa,
	"uneven/chunks3":                      0x1fc8b0afdfc359ca,
	"contiguous":                          0x00ab5e61a5ea858f,
	"shrink":                              0xf5e5c1d0402078b7,
	"real/alltoallv":                      0x796e30d7a930d4ac,
	"real/p2p":                            0x3473e90c62ebe8a6,
	"real/alltoallw/phantom":              0xd81b02da17019a44,
	"real/p2p/batch4":                     0xcfc2c1029c70b839,
	"real/alltoallv/invariants":           0xea3a9e8d8c476646,
	"pipelined/aware/batch3":              0xfc7144f88407684f,
	"pipelined/staged/batch4":             0xbf1ee1388b0e7da8,
	"pipelined/slabs/batch2":              0xa81438d2916d1c08,
	"pipelined/invariants/batch2":         0x19b42539f4c934bd,
	"fault/degrade":                       0x698cd64be7613d25,
	"fault/degrade/chunks3":               0xf2395c090164421d,
	"fault/brick-flip-healed":             0x0a756bcd588f87b9,
	"fault/wire-flip-retransmit":          0x0c258b318d257070,
	"resume/survivors":                    0x17b4426d5401f07e,
}

// fpExecute runs one row and returns its fingerprint.
func fpExecute(t *testing.T, c fpCase) uint64 {
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
			h.f64(cm.Clock())
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
	h.f64(cm.Clock())
	for _, f := range spec {
		h.complexes(f.Data)
	}
	back, err := p.InverseBatch(spec)
	if err != nil {
		t.Errorf("%s: rank %d: inverse: %v", c.name, cm.Rank(), err)
		return
	}
	h.f64(cm.Clock())
	for _, f := range back {
		h.reals(f.Data)
	}
}

// fpFold combines the per-rank hashes and final clocks in rank order.
func fpFold(outs []fpHash, clocks []float64) uint64 {
	all := newFPHash()
	for r, h := range outs {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], h.h.Sum64())
		all.h.Write(b[:])
		all.f64(clocks[r])
	}
	return all.h.Sum64()
}

func TestGoldenFingerprints(t *testing.T) {
	for _, c := range fpCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := fpExecute(t, c)
			if want, ok := fpWant[c.name]; !ok || got != want {
				t.Errorf("fingerprint %q: 0x%016x, want 0x%016x", c.name, got, want)
			}
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
			got := fpExecute(t, c)
			if want, ok := fpWant[c.name]; !ok || got != want {
				t.Errorf("fingerprint %q: 0x%016x, want 0x%016x", c.name, got, want)
			}
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
	const name = "resume/survivors"
	if got, want := fpFold(outs, res.Clocks), fpWant[name]; got != want {
		t.Errorf("fingerprint %q: 0x%016x, want 0x%016x", name, got, want)
	}
}
