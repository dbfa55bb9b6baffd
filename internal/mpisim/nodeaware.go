package mpisim

import (
	"math"
	"slices"

	"repro/internal/machine"
)

// nodeAwareAlgo is the hierarchical two-level all-to-all (AlgoNodeAware).
//
// Phase 1 (gather): each non-leader rank packs its off-node blocks per
// destination node and streams them to its node's leader over NVLink, in the
// cyclic order the leader will need them. Phase 2 (leader exchange): the
// per-node leaders exchange aggregates over the n occupied nodes — node a
// sends its aggregate to node (a+k) mod n in its k-th round — each flow
// driving the group's aggregated share of the node's injection bandwidth
// (topo.System.LeaderBW). Rounds chain per sender: a leader's round k starts
// once its round k−1 drained and its k-th gather slice is available, so the
// gather pipelines under earlier rounds and late ranks delay only their own
// node, not the whole group (receivers carry the skew through arrivals, as in
// ringAlgo). Phase 3 (scatter): as each aggregate lands, the receiving
// leader fans it out to its final ranks over NVLink, overlapping later
// rounds (NVLink and the NIC are distinct ports). Intra-node blocks stream
// directly over NVLink after the sender's gather traffic and never touch the
// NIC.
//
// The leader flows pay no CollCongestion: unlike the per-rank spray of the
// streamed schedules, each node drives a single aggregated flow in round
// order — the handful of fat flows adaptive routing handles cleanly.
//
// Compared to pairwise over ranks, the wire carries the same off-node volume
// but in n−1 aggregated rounds instead of p−1, so the per-round injection
// and latency bill shrinks by the node fan-in, and the cheap NVLink hops
// hide under the ~3× slower wire — the bandwidth-gap structure the paper
// measures on Summit (Fig. 4) turned into a schedule.
type nodeAwareAlgo struct{}

func (nodeAwareAlgo) Synchronized() bool { return false }

// nodeAwareProgram is the two-level schedule compiled: how the exchange ranks
// group by node, and every transfer time the schedule charges before a degrade
// factor — the traffic each node aggregates per destination node and per
// receiver is a function of the pattern alone, so the per-call work is one
// pass over the node's members and one over its rounds. The lists are flat:
// an offset row per owner (rank, node or round) into index and duration
// arrays, int32 indices beside float64 durations.
type nodeAwareProgram struct {
	rankSetup
	m    *machine.Model
	pipe float64

	// Per exchange rank: the drain of its gather slices from its NVLink port
	// (0: it gathers nothing — a leader, or a rank without off-node blocks).
	egress []float64
	// Node a's ranks, ascending, the first its leader: members[nodes[a]:nodes[a+1]].
	members, nodes []int32

	// The rank at members[i]: its gather contribution per destination node
	// (to: the node) at [gather[i], gather[i+1]), its intra-node flows (to:
	// the receiver) at [intra[i], intra[i+1]).
	gather, gTo []int32
	gDur        []float64
	intra, iTo  []int32
	iDur        []float64

	// Node a's leader rounds in round order (to: the destination node, dur:
	// the aggregate's wire time) at [rounds[a], rounds[a+1]); round j lands
	// at its destination's leader itself when lands[j], and is scattered to
	// the node's other receivers (to: the receiver, dur: its last fragment's
	// NVLink hop) at [scatter[j], scatter[j+1]) — scatter is nil when no
	// round has any.
	rounds, rTo []int32
	rDur        []float64
	lands       []bool
	scatter     []int32
	sTo         []int32
	sDur        []float64
}

func (nodeAwareAlgo) compile(ex *Exchange) program {
	m := ex.M
	p := ex.Size

	// Group the ranks by node, dense node ids in first-seen (rank) order.
	nodeID := make([]int32, p)
	dense := make([]int32, ex.Topo.Nodes()) // node of the world → dense id + 1
	var sizes []int32
	var worldNode []int
	for r, mb := range ex.Members {
		wn := ex.Topo.Node(mb.World)
		if dense[wn] == 0 {
			sizes = append(sizes, 0)
			worldNode = append(worldNode, wn)
			dense[wn] = int32(len(sizes))
		}
		nodeID[r] = dense[wn] - 1
		sizes[nodeID[r]]++
	}
	n := len(sizes)
	if n == 1 {
		// Flat group: the two-level schedule degenerates to NVLink streaming.
		return ringAlgo{}.compile(ex)
	}
	prog := &nodeAwareProgram{rankSetup: ex.rankSetup(), m: m, egress: make([]float64, p),
		members: make([]int32, p), nodes: make([]int32, n+1),
		gather: make([]int32, p+1), intra: make([]int32, p+1), rounds: make([]int32, n+1)}
	for id, sz := range sizes {
		prog.nodes[id+1] = prog.nodes[id] + sz
	}
	next := append([]int32(nil), prog.nodes[:n]...)
	for r, id := range nodeID {
		prog.members[next[id]] = int32(r)
		next[id]++
	}
	leads := func(d int32) bool { return d == prog.members[prog.nodes[nodeID[d]]] }

	// Fragment pipeline depth: each round's aggregate is cut into pipe
	// fragments that forward cut-through, so only about one fragment of the
	// gather is exposed before a round's wire transfer starts, and one
	// fragment of the scatter after it lands. Gather slices arrive at the
	// leader already packed per destination node, so no repack copies are
	// charged between the hops.
	prog.pipe = float64(m.CollPipeline)
	if prog.pipe < 1 {
		prog.pipe = 1
	}

	// Programs live as long as their communicator, so the lists are sized
	// exactly, by a first pass that only counts: intra-node flows, a
	// non-leader's destination nodes (gather slices), a node's destination
	// nodes (rounds) and its off-node receivers that lead no node (scatter
	// targets), each distinct one stamped with its owner.
	var nIntra, nGather, nRounds, nScatter int
	nodeStamp, sliceStamp, rankStamp := make([]int32, n), make([]int32, n), make([]int32, p)
	for a := range int32(n) {
		group := prog.members[prog.nodes[a]:prog.nodes[a+1]]
		for i, r := range group {
			for _, f := range ex.Members[r].Flows {
				b := nodeID[f.Dst]
				switch {
				case b == a:
					nIntra++
					continue
				case nodeStamp[b] != a+1:
					nodeStamp[b] = a + 1
					nRounds++
				}
				if rankStamp[f.Dst] != a+1 {
					rankStamp[f.Dst] = a + 1
					if !leads(int32(f.Dst)) {
						nScatter++
					}
				}
				if i > 0 && sliceStamp[b] != r+1 {
					sliceStamp[b] = r + 1
					nGather++
				}
			}
		}
	}
	prog.iTo, prog.iDur = make([]int32, 0, nIntra), make([]float64, 0, nIntra)
	prog.gTo, prog.gDur = make([]int32, 0, nGather), make([]float64, 0, nGather)
	prog.rTo, prog.rDur, prog.lands = make([]int32, 0, nRounds), make([]float64, 0, nRounds), make([]bool, 0, nRounds)
	prog.scatter = make([]int32, 1, nRounds+1)
	prog.sTo, prog.sDur = make([]int32, nScatter), make([]float64, nScatter)

	// Each sending node is compiled on its own from the flows its members
	// emit, in rows cleared after every node: this node's aggregate per
	// destination node (agg), one member's off-node bytes per destination
	// node (up), this node's bytes per off-node receiver (inbound), and the
	// entries of them in use. Every cross-rank combination is an integer sum,
	// so visiting flows instead of a dense node-pair matrix changes no
	// result; the run adds up the chains (a sender's egress, a node's rounds)
	// in the dense schedule's order.
	agg, up, inbound := make([]int, n), make([]int, n), make([]int, p)
	slot := make([]int32, n)   // a destination node's place among this node's rounds
	fill := make([]int32, n+1) // the next scatter entry of each of this node's rounds
	var rounds, upNodes, receivers []int32
	scattered := int32(0)
	for a := range int32(n) {
		group := prog.members[prog.nodes[a]:prog.nodes[a+1]]
		leader := group[0]
		rounds, receivers = rounds[:0], receivers[:0]
		for i, r := range group {
			i += int(prog.nodes[a])
			upNodes = upNodes[:0]
			for _, f := range ex.Members[r].Flows {
				b := nodeID[f.Dst]
				if b == a {
					// Direct intra-node traffic, streamed after the sender's gather.
					prog.iTo = append(prog.iTo, int32(f.Dst))
					prog.iDur = append(prog.iDur, m.CollInject+float64(f.Bytes)/m.IntraBW)
					continue
				}
				if agg[b] == 0 {
					rounds = append(rounds, (b-a+int32(n))%int32(n))
				}
				agg[b] += f.Bytes
				if inbound[f.Dst] == 0 {
					receivers = append(receivers, int32(f.Dst))
				}
				inbound[f.Dst] += f.Bytes
				if r != leader {
					if up[b] == 0 {
						upNodes = append(upNodes, b)
					}
					up[b] += f.Bytes
				}
			}
			prog.intra[i+1] = int32(len(prog.iTo))
			// Gather: a non-leader packs its off-node blocks per destination
			// node and sends each slice to the leader; the flows of different
			// members run concurrently on distinct NVLinks, so a slice is gated
			// by its slowest contributor. The leader's own blocks need no
			// gather.
			gathered := 0
			for _, b := range upNodes {
				prog.gTo = append(prog.gTo, b)
				prog.gDur = append(prog.gDur, m.CollInject+float64(up[b])/m.IntraBW)
				gathered += up[b]
				up[b] = 0
			}
			prog.gather[i+1] = int32(len(prog.gTo))
			if gathered > 0 {
				prog.egress[r] = float64(len(upNodes))*m.CollInject + float64(gathered)/m.IntraBW
			}
		}

		// Leader exchange, in round order: in its k-th round the node sends
		// its aggregate to node (a+k) mod n, at the group's share of the
		// node's injection bandwidth. Rounds with no traffic cost nothing.
		slices.Sort(rounds)
		bw := ex.Topo.LeaderBW(worldNode[a], len(group))
		base := int32(len(prog.rTo))
		for j, k := range rounds {
			b := (a + k) % int32(n)
			slot[b] = base + int32(j)
			prog.rTo = append(prog.rTo, b)
			prog.rDur = append(prog.rDur, m.CollInject+float64(agg[b])/bw)
			prog.lands = append(prog.lands, false)
			agg[b] = 0
		}
		prog.rounds[a+1] = int32(len(prog.rTo))

		// Scatter: each receiver's last fragment, grouped by the round that
		// carries it (a counting sort over the rounds). The receiving leader
		// holds its own blocks at arrival.
		clear(fill)
		for _, d := range receivers {
			if leads(d) {
				prog.lands[slot[nodeID[d]]] = true
			} else {
				fill[slot[nodeID[d]]-base+1]++
			}
		}
		fill[0] = scattered
		for j := range rounds {
			fill[j+1] += fill[j]
			prog.scatter = append(prog.scatter, fill[j+1])
		}
		scattered = fill[len(rounds)]
		for _, d := range receivers {
			if !leads(d) {
				j := slot[nodeID[d]] - base
				prog.sTo[fill[j]] = d
				prog.sDur[fill[j]] = m.CollInject + float64(inbound[d])/prog.pipe/m.IntraBW
				fill[j]++
			}
			inbound[d] = 0
		}
	}
	if nScatter == 0 {
		prog.scatter = nil // every round lands at a leader alone
	}
	return prog
}

func (p *nodeAwareProgram) run(start, factor, comp, slice []float64) {
	m := p.m
	copy(comp, start)
	for a := 0; a+1 < len(p.nodes); a++ {
		group := p.members[p.nodes[a]:p.nodes[a+1]]
		// Per-node start: a node's gather and leader rounds begin once its own
		// active members have arrived. A node with no active member carries no
		// traffic and is skipped. Its gather and leader flows gate on the worst
		// degrade factor among its members.
		startN, fnode := math.Inf(-1), 1.0
		for _, r := range group {
			if f := factor[r]; f > fnode {
				fnode = f
			}
			if !p.active[r] {
				continue
			}
			if s := start[r] + p.launch[r]; s > startN {
				startN = s
			}
		}
		if math.IsInf(startN, -1) {
			continue
		}

		// Members: the slowest gather contribution per destination node
		// (slice), and each sender's egress. A non-leader's NVLink port first
		// drains its gather slices, then streams its intra-node blocks
		// directly to their destinations; leaders stream intra-node blocks
		// from the start (their NIC activity rides a separate port).
		for i := p.nodes[a]; i < p.nodes[a+1]; i++ {
			r := p.members[i]
			f := factor[r]
			for j := p.gather[i]; j < p.gather[i+1]; j++ {
				if c := p.gDur[j] * f; c > slice[p.gTo[j]] {
					slice[p.gTo[j]] = c
				}
			}
			if !p.active[r] {
				continue
			}
			eg := start[r] + p.launch[r]
			if e := p.egress[r]; e > 0 {
				eg += e * f
			}
			for j := p.intra[i]; j < p.intra[i+1]; j++ {
				eg += p.iDur[j] * f
				if arr := eg + m.IntraLatency; arr > comp[p.iTo[j]] {
					comp[p.iTo[j]] = arr
				}
			}
			if eg > comp[r] {
				comp[r] = eg
			}
		}

		// Gather pipeline and leader exchange, in round order. Slices drain
		// in round order: a slice's first fragment is leader-resident one
		// fragment after the gather reaches it (the wire may start streaming
		// then), its last byte leaves its source NVLink a full slice later (the
		// wire cannot finish before it). Rounds chain on the node's NIC — a
		// round starts once the previous one drained and its slice's first
		// fragment is there, and cannot end before the slice's last byte (a
		// slow gather — single sparse contributor — starves the wire). An
		// aggregate lands one wire latency after its round ends, and forwards
		// cut-through: each receiver's last fragment hops the NVLink after the
		// wire finishes; scatters of earlier rounds overlap later rounds
		// (NVLink and the NIC are distinct ports).
		gather, wire := startN, startN
		for j := p.rounds[a]; j < p.rounds[a+1]; j++ {
			b := p.rTo[j]
			gready, gdone := gather, gather
			if s := slice[b]; s > 0 {
				gready = gather + s/p.pipe + m.IntraLatency
				gather += s
				gdone = gather + m.IntraLatency
			}
			slice[b] = 0
			ready := wire
			if gready > ready {
				ready = gready
			}
			wire = ready + p.rDur[j]*fnode
			if gdone > wire {
				wire = gdone
			}
			arrive := wire + m.InterLatency
			if leader := p.members[p.nodes[b]]; p.lands[j] && arrive > comp[leader] {
				comp[leader] = arrive
			}
			if p.scatter == nil {
				continue
			}
			for i := p.scatter[j]; i < p.scatter[j+1]; i++ {
				d := p.sTo[i]
				done := arrive
				done += p.sDur[i]*factor[d] + m.IntraLatency
				if done > comp[d] {
					comp[d] = done
				}
			}
		}
		// The leader finishes no earlier than its last send round drained.
		if leader := group[0]; p.active[leader] && wire > comp[leader] {
			comp[leader] = wire
		}
	}
}
