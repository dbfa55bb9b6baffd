package mpisim

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// TestPriceAlltoallvIsTheExecutedClock: selection and execution are one
// function. On a fresh GPU-aware world an exchange with no self blocks has
// nothing to pay but its schedule, so under every schedule the world's
// makespan is exactly — not approximately — what PriceAlltoallv says of the
// same rows. The sizes straddle node boundaries raggedly (14 Summit ranks are
// 6 + 6 + 2), the last ranks of one case stay silent so the rows stop short of
// the communicator, and round-robin placement turns most pairs inter-node.
func TestPriceAlltoallvIsTheExecutedClock(t *testing.T) {
	cases := []struct {
		name         string
		size, silent int // the last `silent` ranks neither send nor receive
		place        topo.Placement
	}{
		{"block/14", 14, 0, topo.Block()},
		{"round-robin/14", 14, 0, topo.RoundRobin()},
		{"block/9-of-12", 12, 3, topo.Block()},
		{"one-node/5", 5, 0, topo.Block()},
	}
	for _, tc := range cases {
		// A sparse non-uniform matrix in phantom elements: about a third of the
		// pairs carry nothing, the rest between 1 and 4096 complex elements.
		rng := rand.New(rand.NewSource(int64(tc.size*31 + tc.silent)))
		talk := tc.size - tc.silent
		rows := make([][]Flow, talk)
		for r := range rows {
			for d := 0; d < talk; d++ {
				if d != r && rng.Intn(3) > 0 {
					rows[r] = append(rows[r], Flow{Dst: d, Bytes: 16 * (1 + rng.Intn(4096))})
				}
			}
		}
		for _, a := range Algos() {
			var price float64
			w := NewWorld(machine.Summit(), tc.size, Options{GPUAware: true, Placement: tc.place})
			res := w.Run(func(c *Comm) {
				if c.Rank() == 0 {
					price = c.PriceAlltoallv(rows, a)
				}
				var send []Block
				if c.Rank() < talk {
					for _, f := range rows[c.Rank()] {
						send = append(send, Block{Peer: f.Dst, Buf: Buf{N: f.Bytes / 16, Loc: machine.Device}})
					}
				}
				c.AlltoallvSparse(nil, send, nil, machine.Device, a)
			})
			if res.Err != nil {
				t.Fatalf("%s/%v: %v", tc.name, a, res.Err)
			}
			if price <= 0 || res.MaxClock != price {
				t.Errorf("%s/%v: executed makespan %.17g s, PriceAlltoallv %.17g s", tc.name, a, res.MaxClock, price)
			}
		}
	}
}

// TestBruckForwardedClosedForm: the arithmetic count of distances with bit k
// set equals the loop over every distance, for every group size up to 4096 and
// every round (and a few rounds past the last, where it must be zero).
func TestBruckForwardedClosedForm(t *testing.T) {
	for p := 1; p <= 4096; p++ {
		for k := 0; k < 14; k++ {
			want := 0
			for d := 1; d < p; d++ {
				if d&(1<<k) != 0 {
					want++
				}
			}
			if got := bruckForwarded(p, k); got != want {
				t.Fatalf("bruckForwarded(%d, %d) = %d, loop counts %d", p, k, got, want)
			}
		}
	}
}
