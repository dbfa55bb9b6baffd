package mpisim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
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

// TestOneLinearRule: every linear all-to-all is one cost rule — one staging
// rule, one degrade rule, one injection-port gate. On a host-staged world
// whose ranks enter at skewed clocks, one of them on a degraded link, the
// blocking AlgoLinear exchange and its non-blocking twin complete on identical
// per-rank clocks, and so do the padded MPI_Alltoall and AlgoLinear over the
// same rows padded by hand to every peer at the round's largest block.
func TestOneLinearRule(t *testing.T) {
	const size = 8 // 6 + 2 Summit ranks: the rows cross a node boundary
	rng := rand.New(rand.NewSource(17))
	pat := &Pattern{Rows: make([][]Flow, size), Self: make([]int, size)}
	pad := 0
	for r := range size {
		pat.Self[r] = 16 * rng.Intn(2048)
		pad = max(pad, pat.Self[r])
		for d := range size {
			if d != r && rng.Intn(3) > 0 {
				f := Flow{Dst: d, Bytes: 16 * (1 + rng.Intn(4096))}
				pat.Rows[r] = append(pat.Rows[r], f)
				pad = max(pad, f.Bytes)
			}
		}
	}
	padded := &Pattern{Rows: make([][]Flow, size), Self: pat.Self}
	for r := range size {
		for d := range size {
			if d != r {
				padded.Rows[r] = append(padded.Rows[r], Flow{Dst: d, Bytes: pad})
			}
		}
	}
	clocks := func(call func(c *Comm)) []float64 {
		w := NewWorld(machine.Summit(), size, Options{Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.Degrade, Rank: 3, Op: 0, Factor: 3, Count: 1}}}})
		res := w.Run(func(c *Comm) {
			c.Advance(float64(c.Rank()%3) * 40e-6)
			call(c)
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Clocks
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		for r := range a {
			if a[r] != b[r] {
				t.Errorf("%s: rank %d completes at %.17g s against %.17g s", what, r, a[r], b[r])
			}
		}
	}
	blocking := clocks(func(c *Comm) { c.AlltoallvSparse(pat, nil, nil, machine.Device, AlgoLinear) })
	same("IalltoallvSparse+WaitSparse against blocking AlltoallvSparse", clocks(func(c *Comm) {
		c.WaitSparse(c.IalltoallvSparse(pat, nil, nil, machine.Device, AlgoLinear))
	}), blocking)
	same("AlltoallSparse against AlltoallvSparse over padded rows", clocks(func(c *Comm) {
		c.AlltoallSparse(pat, nil, nil, machine.Device)
	}), clocks(func(c *Comm) { c.AlltoallvSparse(padded, nil, nil, machine.Device, AlgoLinear) }))
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
