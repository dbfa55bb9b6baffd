package core

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpisim"
)

// TestPatternMatchesBlocks: the exchange pattern a reshape hands the transport
// says exactly what the blocks of a real-payload exchange would. For every
// geometry of the golden fingerprint configurations, every reshape forward and
// reversed, batch widths 1–3, fp64/fp32/fp16 wires and every chunk of 1–4
// chunks, each member packs real arrays; the group's pattern rows and self
// blocks must equal what the transport's leader reads off those blocks
// (non-empty off-diagonal blocks, ascending destination; the self block), and
// the rank's element totals must equal the elements it packed and the elements
// its peers packed for it.
func TestPatternMatchesBlocks(t *testing.T) {
	type key struct {
		config                       string
		stage                        int
		root, batch, web, chunks, ci int
	}
	// seen is one member's view of one exchange.
	type seen struct {
		pat        *mpisim.Pattern
		send, recv int           // the rank's pattern totals, elements
		row        []mpisim.Flow // off-diagonal blocks packed, bytes
		self       int           // bytes of the packed self block
		to         map[int]int   // elements packed per destination group rank
	}
	var mu sync.Mutex
	obs := map[key]map[int]seen{}
	configs := map[string]bool{}
	for _, c := range fpCases() {
		if c.global[0]*c.global[1]*c.global[2] > 16*16*16 {
			continue // the 256³ row repeats the 12-rank pencil geometry of the 16³ rows
		}
		id := fmt.Sprintf("%d/%v/%v/%d/%v/%t", c.ranks, c.global, c.opts.Decomp, c.opts.ShrinkThreshold, c.world.Placement, c.run == fpReal)
		if configs[id] {
			continue
		}
		configs[id] = true
		w := mpisim.NewWorld(machine.Summit(), c.ranks, mpisim.Options{GPUAware: true, Placement: c.world.Placement})
		res := w.Run(func(cm *mpisim.Comm) {
			// Every reshape of the plan, and for a complex plan its reversal
			// (a RealPlan's inverse pipeline holds its own).
			var e *engine
			var reshapes []*reshapePlan
			if c.run == fpReal {
				p, err := NewRealPlan(cm, RealConfig{Global: c.global, Opts: c.opts})
				if err != nil {
					cm.Fail(err)
				}
				e = &p.engine
				for _, st := range append(p.stages, p.revStages...) {
					if st.kind == stageReshape {
						reshapes = append(reshapes, st.rs)
					}
				}
			} else {
				p, err := NewPlan(cm, Config{Global: c.global, Opts: c.opts})
				if err != nil {
					cm.Fail(err)
				}
				e = &p.engine
				for _, st := range p.stages {
					if st.kind == stageReshape {
						reshapes = append(reshapes, st.rs, reverseReshape(st.rs))
					}
				}
			}
			for si, rs := range reshapes {
				if rs.group == nil {
					continue
				}
				for batch := 1; batch <= 3; batch++ {
					datas := make([][]complex128, batch)
					for i := range datas {
						datas[i] = make([]complex128, rs.from.Volume())
					}
					for _, wire := range []WirePrecision{WireFp64, WireFp32, WireFp16} {
						web := WireElemSize(wire, 16)
						for chunks := 1; chunks <= 4; chunks++ {
							for ci := 0; ci < chunks; ci++ {
								var x exchange[complex128]
								x.arm(e, rs, datas, make([][]complex128, batch), false, false, false, onGrid{})
								x.wire, x.web, x.chunks = wire, web, chunks
								blocks, _ := x.packBlocks(ci)
								ep := rs.exchPattern(web, batch, ci, chunks)
								s := seen{pat: ep.pat, send: ep.send, recv: ep.recv, to: map[int]int{}}
								for i := range blocks {
									b := &blocks[i]
									switch by := b.Buf.Bytes(); {
									case b.Peer == rs.myGroupRank:
										s.self = by
									case by > 0:
										s.row = append(s.row, mpisim.Flow{Dst: b.Peer, Bytes: by})
									}
									s.to[b.Peer] += b.Buf.Elems()
									putBuf(b.Buf.Data)
								}
								putBlocks(blocks)
								k := key{id, si, rs.root, batch, web, chunks, ci}
								mu.Lock()
								if obs[k] == nil {
									obs[k] = map[int]seen{}
								}
								obs[k][rs.myGroupRank] = s
								mu.Unlock()
							}
						}
					}
				}
			}
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", id, res.Err)
		}
	}
	fails := 0
	fail := func(format string, args ...any) {
		if fails++; fails <= 10 {
			t.Errorf(format, args...)
		}
	}
	for k, m := range obs {
		pat := m[0].pat
		if len(m) != len(pat.Rows) {
			fail("%+v: %d members packed, the pattern has %d rows", k, len(m), len(pat.Rows))
			continue
		}
		for i, s := range m {
			if s.pat != pat {
				fail("%+v: group rank %d prices from another pattern than group rank 0", k, i)
			}
			if !slices.Equal(pat.Rows[i], s.row) {
				fail("%+v: group rank %d: pattern row %v, packed blocks %v", k, i, pat.Rows[i], s.row)
			}
			if pat.Self[i] != s.self {
				fail("%+v: group rank %d: pattern self block %d B, packed %d B", k, i, pat.Self[i], s.self)
			}
			sent, got := 0, 0
			for _, n := range s.to {
				sent += n
			}
			for _, o := range m {
				got += o.to[i]
			}
			if s.send != sent || s.recv != got {
				fail("%+v: group rank %d: pattern totals send %d recv %d elements, blocks %d and %d", k, i, s.send, s.recv, sent, got)
			}
		}
	}
	if fails > 0 {
		t.Errorf("%d mismatches over %d exchanges of %d configurations", fails, len(obs), len(configs))
	}
	t.Logf("%d exchanges of %d configurations", len(obs), len(configs))
}

// TestBareExchangesMoveNoBlockLists: a phantom transform on a world without
// faults or integrity builds no exchange vector — on every collective backend,
// chunked or not, and through the per-entry async posts. The 64-rank transform
// runs on one processor with the collector off, so every list drawn from
// blockPool would still be in it afterwards (the transport's leader, handed no
// block list, has nothing to transpose either).
func TestBareExchangesMoveNoBlockLists(t *testing.T) {
	oneProc(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pencilV := Options{Decomp: DecompPencils, Backend: BackendAlltoallv}
	chunked := pencilV
	chunked.Comm.Chunks = 3
	rows := []struct {
		name      string
		opts      Options
		pipelined bool
	}{
		{"alltoallv", pencilV, false},
		{"alltoallv/chunks3", chunked, false},
		{"alltoall", Options{Decomp: DecompPencils, Backend: BackendAlltoall}, false},
		{"alltoallw/slabs", Options{Decomp: DecompSlabs, Backend: BackendAlltoallw}, false},
		{"pipelined", pencilV, true},
	}
	drain := func() int {
		n := 0
		for c := range blockPool.classes {
			for x := blockPool.classes[c].Get(); x != nil; x = blockPool.classes[c].Get() {
				n++
			}
		}
		return n
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			drawn := 0
			w := mpisim.NewWorld(machine.Summit(), 64, mpisim.Options{GPUAware: true})
			res := w.Run(func(c *mpisim.Comm) {
				p, err := NewPlan(c, Config{Global: [3]int{64, 64, 64}, Opts: tc.opts})
				if err != nil {
					c.Fail(err)
				}
				fs := []*Field{NewPhantom(p.InBox()), NewPhantom(p.InBox())}
				fwd, inv := p.ForwardBatch, p.InverseBatch
				if tc.pipelined {
					fwd, inv = p.ForwardPipelined, p.InversePipelined
				}
				pair := func() {
					if err := fwd(fs); err != nil {
						c.Fail(err)
					}
					if err := inv(fs); err != nil {
						c.Fail(err)
					}
					c.Barrier()
				}
				pair() // resolves every exchange
				if c.Rank() == 0 {
					drain()
				}
				c.Barrier()
				pair()
				if c.Rank() == 0 {
					drawn = drain()
				}
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if drawn > 0 {
				t.Errorf("a phantom forward+inverse pair drew %d exchange vectors from blockPool, want 0", drawn)
			}
		})
	}
}

// BenchmarkPhantomTransform times the plan layer at paper scale without the
// benchmark harness: 512³ on 768 ranks with the Table III bricks and pencil
// grid, phantom fields, one Forward and one Inverse per op — exchange
// patterns, rendezvous and pricing, no payload.
func BenchmarkPhantomTransform(b *testing.B) {
	const ranks = 768
	cfg := tableIIIPlan(ranks, DecompPencils)
	w := mpisim.NewWorld(machine.Summit(), ranks, mpisim.Options{GPUAware: true})
	res := w.Run(func(c *mpisim.Comm) {
		p, err := NewPlan(c, cfg)
		if err != nil {
			c.Fail(err)
		}
		f := NewPhantom(p.InBox())
		op := func() {
			if err := p.Forward(f); err != nil {
				c.Fail(err)
			}
			if err := p.Inverse(f); err != nil {
				c.Fail(err)
			}
		}
		op() // resolves every exchange
		c.Barrier()
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			op()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
	if res.Err != nil {
		b.Fatal(res.Err)
	}
}
