package mpisim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
)

// randomSendMatrix builds a deterministic non-uniform payload matrix:
// send[r][d] holds distinct values and block sizes vary per pair, including
// empty blocks — the boxed-reshape shape the scheduled algorithms must route
// exactly like the legacy linear path.
func randomSendMatrix(rng *rand.Rand, size int) [][][]complex128 {
	data := make([][][]complex128, size)
	for r := 0; r < size; r++ {
		data[r] = make([][]complex128, size)
		for d := 0; d < size; d++ {
			n := rng.Intn(7) // 0..6 elements; 0 exercises empty blocks
			block := make([]complex128, n)
			for i := range block {
				block[i] = complex(float64(r*1000+d*10+i), float64(rng.Intn(100)))
			}
			data[r][d] = block
		}
	}
	return data
}

// lend is the receive list a sparse call is lent: too short for most ranks'
// arrivals and holding stale entries, which the engine must drop before
// appending.
func lend() []Block {
	return []Block{{Peer: 99, Buf: Buf{N: 5}}, {Peer: 98, Buf: Buf{N: 7, Corrupt: true}}}
}

// exchCall is one way of invoking an all-to-all, once through the dense
// adapter and once through the sparse entry point. Each returns what every
// call of the sequence received; send yields a fresh send vector per call.
type exchCall struct {
	name   string
	dense  func(c *Comm, send func() []Buf) [][]Buf
	sparse func(c *Comm, send func() []Block, loc machine.Location) [][]Block
}

// exchCalls lists the three naive flavours and, per schedule, the blocking
// call, the non-blocking call and a back-to-back non-blocking pair.
func exchCalls() []exchCall {
	calls := []exchCall{
		{"alltoall",
			func(c *Comm, send func() []Buf) [][]Buf { return [][]Buf{alltoallDense(c, send())} },
			func(c *Comm, send func() []Block, loc machine.Location) [][]Block {
				return [][]Block{c.AlltoallSparse(nil, send(), lend(), loc)}
			}},
		{"alltoallv",
			func(c *Comm, send func() []Buf) [][]Buf { return [][]Buf{alltoallvDense(c, send())} },
			func(c *Comm, send func() []Block, loc machine.Location) [][]Block {
				return [][]Block{c.AlltoallvSparse(nil, send(), lend(), loc, AlgoLinear)}
			}},
		{"alltoallw",
			func(c *Comm, send func() []Buf) [][]Buf { return [][]Buf{alltoallwDense(c, send())} },
			func(c *Comm, send func() []Block, loc machine.Location) [][]Block {
				return [][]Block{c.AlltoallwSparse(nil, send(), lend(), loc)}
			}},
	}
	for _, a := range Algos() {
		a := a
		calls = append(calls,
			exchCall{"with/" + a.String(),
				func(c *Comm, send func() []Buf) [][]Buf { return [][]Buf{c.AlltoallvWith(send(), a)} },
				func(c *Comm, send func() []Block, loc machine.Location) [][]Block {
					return [][]Block{c.AlltoallvSparse(nil, send(), lend(), loc, a)}
				}},
			exchCall{"iwith/" + a.String(),
				func(c *Comm, send func() []Buf) [][]Buf {
					req := ialltoallvDense(c, send(), a)
					c.Advance(3e-6)
					return [][]Buf{c.WaitColl(req)}
				},
				func(c *Comm, send func() []Block, loc machine.Location) [][]Block {
					req := c.IalltoallvSparse(nil, send(), lend(), loc, a)
					c.Advance(3e-6)
					return [][]Block{c.WaitSparse(req)}
				}},
			exchCall{"pair/iwith/" + a.String(),
				func(c *Comm, send func() []Buf) [][]Buf {
					x, y := ialltoallvDense(c, send(), a), ialltoallvDense(c, send(), a)
					c.Advance(1e-6)
					return [][]Buf{c.WaitColl(x), c.WaitColl(y)}
				},
				func(c *Comm, send func() []Block, loc machine.Location) [][]Block {
					x, y := c.IalltoallvSparse(nil, send(), lend(), loc, a), c.IalltoallvSparse(nil, send(), lend(), loc, a)
					c.Advance(1e-6)
					return [][]Block{c.WaitSparse(x), c.WaitSparse(y)}
				}},
		)
	}
	return calls
}

// exchCase is one exchange matrix (data[src][dst]) under one set of world
// options. wantErr is the fault the world must fail with, if any.
type exchCase struct {
	name    string
	data    [][][]complex128
	opts    Options
	wantErr error
}

// silentSender is the rank whose first call's transmissions are silently
// corrupted (-1: nobody's).
func (tc exchCase) silentSender() int {
	if tc.opts.Faults != nil {
		for _, e := range tc.opts.Faults.Events {
			if e.Kind == faults.CorruptSilent {
				return e.Rank
			}
		}
	}
	return -1
}

// blank empties the listed (src, dst) blocks of a matrix; -1 is a wildcard.
func blank(data [][][]complex128, pairs ...[2]int) [][][]complex128 {
	for _, p := range pairs {
		for s := range data {
			for d := range data[s] {
				if (p[0] == -1 || p[0] == s) && (p[1] == -1 || p[1] == d) {
					data[s][d] = nil
				}
			}
		}
	}
	return data
}

func exchCases() []exchCase {
	matrix := func(seed int64, size int) [][][]complex128 {
		return randomSendMatrix(rand.New(rand.NewSource(seed)), size)
	}
	aware := Options{GPUAware: true}
	// Rank 1 keeps only its self block and nobody sends to it.
	selfOnly := blank(matrix(3, 5), [2]int{1, -1}, [2]int{-1, 1})
	selfOnly[1][1] = []complex128{7, 8i}
	// Rank 2's contribution is lost; only rank 4 expects bytes from it.
	dropped := blank(matrix(4, 6), [2]int{2, -1})
	dropped[2][2], dropped[2][4] = []complex128{1}, []complex128{2, 3}
	silent := &faults.Plan{Events: []faults.Event{{Kind: faults.CorruptSilent, Rank: 2, Op: 0, Count: 1}}}
	return []exchCase{
		{name: "non-uniform", data: matrix(1, 12), opts: aware},
		{name: "non-uniform/staged", data: matrix(1, 12), opts: Options{}},
		// Ranks 2 and 5 send nothing, rank 3 receives nothing.
		{name: "empty-rows", data: blank(matrix(2, 7), [2]int{2, -1}, [2]int{5, -1}, [2]int{-1, 3}), opts: aware},
		{name: "empty-rows/staged", data: blank(matrix(2, 7), [2]int{2, -1}, [2]int{5, -1}, [2]int{-1, 3}), opts: Options{}},
		{name: "self-only", data: selfOnly, opts: aware},
		{name: "one-rank", data: [][][]complex128{{{1, 2, 3}}}, opts: aware},
		{name: "degrade", data: matrix(5, 12), opts: Options{GPUAware: true, Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.Degrade, Rank: 3, Op: 0, Factor: 2.5, Count: 2},
			{Kind: faults.Stall, Rank: 7, Op: 0, Delay: 2e-5}}}}},
		{name: "degrade/staged", data: matrix(5, 12), opts: Options{Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.Degrade, Rank: 9, Op: 0, Factor: 4, Count: 2}}}}},
		{name: "dropped-sender", data: dropped, wantErr: ErrExchangeTimeout, opts: Options{GPUAware: true,
			Faults: &faults.Plan{Timeout: 1, Events: []faults.Event{{Kind: faults.Drop, Rank: 2, Op: 0}}}}},
		// Rank 2's transmissions are silently corrupted. Under checksums each
		// receiver repairs its own block in place in rank 2's deposit; without
		// them the flip lands there. Either way nobody else's block changes.
		{name: "silent-repair", data: matrix(6, 8), opts: Options{GPUAware: true, Faults: silent,
			Integrity: IntegrityConfig{Checksums: true}}},
		{name: "silent-flip", data: matrix(6, 8), opts: Options{GPUAware: true, Faults: silent}},
	}
}

// exchOutcome is what one run of a case delivered: every rank's final clock,
// the blocks each rank received per call and source, and the world's fault. A
// sparse run also keeps the lists themselves: what every rank deposited and
// the entries it was handed back.
type exchOutcome struct {
	clocks    []float64
	recv      [][][][]complex128 // [rank][call][src]
	err       error
	deposits  [][][]Block // [rank][call], sparse runs
	delivered [][][]Block // [rank][call], sparse runs
}

// runExchangeCase executes call on a fresh world of the case, through the
// dense adapter or the sparse entry point.
func runExchangeCase(tc exchCase, call exchCall, sparse bool) exchOutcome {
	size := len(tc.data)
	out := exchOutcome{recv: make([][][][]complex128, size),
		deposits: make([][][]Block, size), delivered: make([][][]Block, size)}
	w := NewWorld(machine.Summit(), size, tc.opts)
	res := w.Run(func(c *Comm) {
		row := tc.data[c.Rank()]
		block := func(d int) Buf {
			return Buf{Data: append([]complex128(nil), row[d]...), Loc: machine.Device}
		}
		var got [][][]complex128
		if sparse {
			// The sparse caller ships its blocks with Move, as the reshape
			// driver does; ownership is not a modelled cost, so the clocks
			// still have to match the dense (copying) run.
			recv := call.sparse(c, func() []Block {
				var send []Block
				for d := range row {
					if len(row[d]) > 0 {
						b := block(d)
						b.Move = true
						send = append(send, Block{Peer: d, Buf: b})
					}
				}
				out.deposits[c.Rank()] = append(out.deposits[c.Rank()], send)
				return send
			}, machine.Device)
			out.delivered[c.Rank()] = recv
			for _, blocks := range recv {
				rows := make([][]complex128, size)
				for _, b := range blocks {
					rows[b.Peer] = b.Buf.Data
				}
				got = append(got, rows)
			}
		} else {
			recv := call.dense(c, func() []Buf {
				send := make([]Buf, size)
				for d := range send {
					send[d] = block(d)
				}
				return send
			})
			for _, bufs := range recv {
				rows := make([][]complex128, size)
				for s, b := range bufs {
					rows[s] = b.Data
				}
				got = append(got, rows)
			}
		}
		out.recv[c.Rank()] = got
	})
	out.clocks, out.err = res.Clocks, res.Err
	return out
}

// TestAlltoallvWithBitIdentical: every all-to-all flavour — the three naive
// collectives and each schedule, blocking, non-blocking and as a back-to-back
// non-blocking pair — routes non-uniform exchanges (empty blocks, empty rows
// and columns, a self-only rank and the 1-rank edge case included, with and
// without faults) to exactly the transposed matrix, and the dense adapter and
// the sparse entry point agree on it bit for bit: the same clock on every rank
// (==) and the same delivered blocks, element by element. A silently corrupting
// sender damages (or has repaired) exactly the blocks it sent and nothing any
// other rank receives. The sparse run also pins the ownership rule: every entry
// a rank is handed equals the block its source deposited — the receiver's own
// copy of it — and a Move payload arrives as the sender's own array, not a
// copy of it.
func TestAlltoallvWithBitIdentical(t *testing.T) {
	for _, tc := range exchCases() {
		for _, call := range exchCalls() {
			tc, call := tc, call
			t.Run(tc.name+"/"+call.name, func(t *testing.T) {
				dense, sparse := runExchangeCase(tc, call, false), runExchangeCase(tc, call, true)
				if tc.wantErr != nil {
					if !errors.Is(dense.err, tc.wantErr) || !errors.Is(sparse.err, tc.wantErr) {
						t.Fatalf("dense err = %v, sparse err = %v, want %v from both", dense.err, sparse.err, tc.wantErr)
					}
					// The only rank expecting bytes from the lost sender raises.
					if dense.err.Error() != sparse.err.Error() {
						t.Errorf("dense failed with %q, sparse with %q", dense.err, sparse.err)
					}
					return
				}
				if dense.err != nil || sparse.err != nil {
					t.Fatalf("dense err = %v, sparse err = %v", dense.err, sparse.err)
				}
				for r := range dense.clocks {
					if dense.clocks[r] != sparse.clocks[r] {
						t.Errorf("rank %d: dense clock %v != sparse clock %v", r, dense.clocks[r], sparse.clocks[r])
					}
				}
				for _, o := range []struct {
					name string
					out  exchOutcome
				}{{"dense", dense}, {"sparse", sparse}} {
					for r, calls := range o.out.recv {
						for ci, rows := range calls {
							for s, have := range rows {
								want := tc.data[s][r]
								if len(have) != len(want) {
									t.Fatalf("%s: rank %d call %d from %d: got %d elems, want %d", o.name, r, ci, s, len(have), len(want))
								}
								// Without checksums a silent corruption really lands:
								// one element of every block that left the sender.
								flips := 0
								if s == tc.silentSender() && !tc.opts.Integrity.Checksums && s != r && ci == 0 && len(want) > 0 {
									flips = 1
								}
								for i := range want {
									if have[i] != want[i] {
										if flips--; flips < 0 {
											t.Fatalf("%s: rank %d call %d from %d elem %d: got %v want %v", o.name, r, ci, s, i, have[i], want[i])
										}
									}
								}
								if flips > 0 {
									t.Errorf("%s: rank %d call %d from %d: block arrived exact, want one flipped element", o.name, r, ci, s)
								}
							}
						}
					}
				}
				for r, calls := range sparse.delivered {
					for ci, recv := range calls {
						for _, d := range recv {
							var sent *Buf
							deposit := sparse.deposits[d.Peer][ci]
							for i := range deposit {
								if deposit[i].Peer == r {
									sent = &deposit[i].Buf
								}
							}
							if sent == nil {
								continue // a zero-size block a faulty sender's list was filled out with
							}
							// A faulty sender deposits a filled-out copy of its list,
							// and the receiver repairs or flips its own entry.
							if !reflect.DeepEqual(d.Buf, *sent) && !(d.Peer == tc.silentSender() && ci == 0) {
								t.Errorf("rank %d call %d: entry from %d differs from the deposited block:\n got %+v\nwant %+v", r, ci, d.Peer, d.Buf, *sent)
							}
							if &d.Buf.Data[0] != &sent.Data[0] {
								t.Errorf("rank %d call %d: Move payload from %d was copied", r, ci, d.Peer)
							}
						}
					}
				}
			})
		}
	}
}

// TestAlltoallvWithDeterministic: the virtual completion time of each
// schedule is a pure function of the exchange — identical across runs.
func TestAlltoallvWithDeterministic(t *testing.T) {
	clock := func(a Algo) float64 {
		data := randomSendMatrix(rand.New(rand.NewSource(99)), 9)
		w := NewWorld(machine.Summit(), 9, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, 9)
			for d := 0; d < 9; d++ {
				send[d] = Buf{Data: append([]complex128(nil), data[c.Rank()][d]...), Loc: machine.Device}
			}
			c.AlltoallvWith(send, a)
		})
		if res.Err != nil {
			t.Fatalf("algo %v: %v", a, res.Err)
		}
		return res.MaxClock
	}
	for _, a := range Algos() {
		c1, c2 := clock(a), clock(a)
		if c1 != c2 {
			t.Errorf("algo %v: clocks differ across runs: %v vs %v", a, c1, c2)
		}
		if c1 <= 0 {
			t.Errorf("algo %v: non-positive completion clock %v", a, c1)
		}
	}
}

// TestAlltoallvWithSchedulesDiffer: the schedules are the same exchange at
// different virtual-time costs — at a bandwidth-bound shape the scheduled
// algorithms must not all collapse onto the linear clock.
func TestAlltoallvWithSchedulesDiffer(t *testing.T) {
	clocks := map[Algo]float64{}
	for _, a := range Algos() {
		w := NewWorld(machine.Summit(), 12, Options{GPUAware: true})
		res := w.Run(func(c *Comm) {
			send := make([]Buf, 12)
			for d := range send {
				send[d] = Buf{N: 1 << 14, Loc: machine.Device}
			}
			c.AlltoallvWith(send, a)
		})
		if res.Err != nil {
			t.Fatalf("algo %v: %v", a, res.Err)
		}
		clocks[a] = res.MaxClock
	}
	if clocks[AlgoRing] >= clocks[AlgoLinear] {
		t.Errorf("ring (%v) should beat linear (%v) on a dense device exchange",
			clocks[AlgoRing], clocks[AlgoLinear])
	}
	if clocks[AlgoBruck] == clocks[AlgoPairwise] {
		t.Errorf("bruck and pairwise coincide (%v): schedules are not being applied", clocks[AlgoBruck])
	}
}
