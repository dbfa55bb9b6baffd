package mpisim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
)

// TestPatternPricesLikeBlocks: an exchange handed over as its pattern alone —
// no block list on any rank — completes on exactly the clocks of the same
// exchange deposited as phantom blocks, under every flavour, blocking and
// non-blocking, GPU-aware and host-staged; and the leader of a pattern-only
// round transposes nothing, while every block-carrying round is transposed.
// Each rank posts twice back to back, so the injection-port gating of the
// scheduled flavours is part of what is compared.
func TestPatternPricesLikeBlocks(t *testing.T) {
	const size = 9
	rng := rand.New(rand.NewSource(7))
	pat := &Pattern{Rows: make([][]Flow, size), Self: make([]int, size)}
	for r := range pat.Rows {
		for d := 0; d < size; d++ {
			switch {
			case d == r && rng.Intn(4) > 0:
				pat.Self[r] = 16 * (1 + rng.Intn(512))
			case d != r && rng.Intn(3) > 0:
				pat.Rows[r] = append(pat.Rows[r], Flow{Dst: d, Bytes: 16 * (1 + rng.Intn(4096))})
			}
		}
	}
	// blocks lists rank r's share of the pattern as phantom blocks.
	blocks := func(r int) []Block {
		var l []Block
		self := pat.Self[r] > 0
		for _, f := range pat.Rows[r] {
			if self && f.Dst > r {
				l, self = append(l, Block{Peer: r, Buf: Buf{N: pat.Self[r] / 16, Loc: machine.Device}}), false
			}
			l = append(l, Block{Peer: f.Dst, Buf: Buf{N: f.Bytes / 16, Loc: machine.Device}})
		}
		if self {
			l = append(l, Block{Peer: r, Buf: Buf{N: pat.Self[r] / 16, Loc: machine.Device}})
		}
		return l
	}
	type flavour struct {
		name string
		call func(c *Comm, p *Pattern, send []Block)
	}
	flavours := []flavour{
		{"alltoall", func(c *Comm, p *Pattern, send []Block) { c.AlltoallSparse(p, send, nil, machine.Device) }},
		{"alltoallw", func(c *Comm, p *Pattern, send []Block) { c.AlltoallwSparse(p, send, nil, machine.Device) }},
	}
	for _, a := range Algos() {
		flavours = append(flavours,
			flavour{"alltoallv/" + a.String(), func(c *Comm, p *Pattern, send []Block) { c.AlltoallvSparse(p, send, nil, machine.Device, a) }},
			flavour{"ialltoallv/" + a.String(), func(c *Comm, p *Pattern, send []Block) {
				c.WaitSparse(c.IalltoallvSparse(p, send, nil, machine.Device, a))
			}})
	}
	run := func(fl flavour, aware, withPattern bool) ([]float64, int) {
		w := NewWorld(machine.Summit(), size, Options{GPUAware: aware})
		transposes := 0
		res := w.Run(func(c *Comm) {
			for range 2 {
				if withPattern {
					fl.call(c, pat, nil)
				} else {
					fl.call(c, nil, blocks(c.Rank()))
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				transposes = c.core.rv.transposes
			}
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", fl.name, res.Err)
		}
		return res.Clocks, transposes
	}
	for _, aware := range []bool{true, false} {
		for _, fl := range flavours {
			want, tb := run(fl, aware, false)
			got, tp := run(fl, aware, true)
			if !slices.Equal(got, want) {
				t.Errorf("%s (GPU-aware %t): pattern-priced clocks %v, block-priced %v", fl.name, aware, got, want)
			}
			if tp != 0 || tb != 2 {
				t.Errorf("%s (GPU-aware %t): %d transposes priced from the pattern, %d from blocks; want 0 and 2", fl.name, aware, tp, tb)
			}
		}
	}
}
