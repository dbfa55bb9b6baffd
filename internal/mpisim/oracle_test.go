package mpisim

import (
	"math"
	"sort"
)

// The direct form of every schedule: completion times computed from the whole
// Exchange in one pass, the per-call half (starts, degrade factors ≥ 1)
// passed beside it. They are the oracle the compiled programs are held to,
// bit for bit (TestCompiledSchedulesMatchDirect).

// direct prices ex under impl the direct way.
func direct(impl CollectiveAlgo, ex *Exchange, start, factor []float64) []float64 {
	switch a := impl.(type) {
	case linearAlgo:
		return directLinear(a, ex, start, factor)
	case pairwiseAlgo:
		return directPairwise(ex, start, factor)
	case ringAlgo:
		return directRing(ex, start, factor)
	case bruckAlgo:
		return directBruck(ex, start, factor)
	case nodeAwareAlgo:
		return directNodeAware(ex, start, factor)
	}
	panic("mpisim: no direct form of this schedule")
}

func directLinear(a linearAlgo, ex *Exchange, start, factor []float64) []float64 {
	comp := make([]float64, ex.Size)
	for r := 0; r < ex.Size; r++ {
		srcW := ex.Members[r].World
		oh := ex.overhead(r)
		t := 0.0
		if a.padded {
			for dst := range ex.Members {
				if dst != r {
					dstW := ex.Members[dst].World
					t += oh + float64(ex.pad)/ex.Topo.NaiveFlowBW(srcW, dstW) + ex.latency(srcW, dstW)
				}
			}
		} else {
			for _, f := range ex.Members[r].Flows {
				dstW := ex.Members[f.Dst].World
				t += oh + float64(f.Bytes)/ex.Topo.NaiveFlowBW(srcW, dstW) + ex.latency(srcW, dstW)
			}
		}
		comp[r] = start[r] + t*factor[r]
	}
	return comp
}

func directPairwise(ex *Exchange, start, factor []float64) []float64 {
	m := ex.M
	p := ex.Size
	comp := make([]float64, p)
	t := math.Inf(-1)
	any := false
	for r := 0; r < p; r++ {
		comp[r] = start[r]
		if ex.Members[r].Active {
			any = true
			if s := start[r] + ex.overhead(r); s > t {
				t = s
			}
		}
	}
	if !any || p == 1 {
		return comp
	}
	// Bucket the flows by round: round k lasts as long as the slowest pair at
	// cyclic distance k (a maximum, so the bucketing order is immaterial), and
	// the rounds add up in ascending k — empty ones add nothing.
	dur := make([]float64, p)
	for r := 0; r < p; r++ {
		for _, f := range ex.Members[r].Flows {
			k := (f.Dst - r + p) % p
			src, dw := ex.Members[r].World, ex.Members[f.Dst].World
			d := (m.CollInject + float64(f.Bytes)/ex.flowBW(src, dw) + ex.latency(src, dw)) * factor[r]
			if d > dur[k] {
				dur[k] = d
			}
		}
	}
	for k := 1; k < p; k++ {
		t += dur[k]
	}
	for r := 0; r < p; r++ {
		if ex.Members[r].Active {
			comp[r] = t
		}
	}
	return comp
}

func directRing(ex *Exchange, start, factor []float64) []float64 {
	m := ex.M
	p := ex.Size
	comp := make([]float64, p)
	arrival := make([]float64, p)
	for r := 0; r < p; r++ {
		comp[r] = start[r]
	}
	for r := 0; r < p; r++ {
		if !ex.Members[r].Active {
			continue
		}
		t0 := start[r] + ex.overhead(r)
		intra, inter := t0, t0
		f := factor[r]
		sw := ex.Members[r].World
		row, i0 := ex.Members[r].Flows, ex.cyclicStart(r)
		for i := range row {
			fl := row[(i0+i)%len(row)]
			dw := ex.Members[fl.Dst].World
			var arr float64
			if ex.Topo.SameNode(sw, dw) {
				intra += (m.CollInject + float64(fl.Bytes)/m.IntraBW) * f
				arr = intra + m.IntraLatency
			} else {
				bw := ex.flowBW(sw, dw) / (1 + m.CollCongestion)
				inter += (m.CollInject + float64(fl.Bytes)/bw) * f
				arr = inter + m.InterLatency
			}
			if arr > arrival[fl.Dst] {
				arrival[fl.Dst] = arr
			}
		}
		done := math.Max(intra, inter)
		if done > comp[r] {
			comp[r] = done
		}
	}
	for r := 0; r < p; r++ {
		if arrival[r] > comp[r] {
			comp[r] = arrival[r]
		}
	}
	return comp
}

func directBruck(ex *Exchange, start, factor []float64) []float64 {
	m := ex.M
	p := ex.Size
	comp := make([]float64, p)
	t := math.Inf(-1)
	anyActive := false
	total := 0
	fmax := 1.0
	for r := 0; r < p; r++ {
		comp[r] = start[r]
		if !ex.Members[r].Active {
			continue
		}
		anyActive = true
		if s := start[r] + ex.overhead(r); s > t {
			t = s
		}
		if f := factor[r]; f > fmax {
			fmax = f
		}
		for _, fl := range ex.Members[r].Flows {
			total += fl.Bytes
		}
	}
	if !anyActive || p == 1 {
		return comp
	}
	mbar := float64(total) / float64(p*(p-1))
	// Worst link present in the group gates each synchronized round: the
	// scheduled injection share of the group's most-crowded node.
	bw, lat := m.IntraBW, m.IntraLatency
	if ex.spansNodes() {
		seen := make(map[int]bool, 8)
		for _, mb := range ex.Members {
			n := ex.Topo.Node(mb.World)
			if seen[n] {
				continue
			}
			seen[n] = true
			if share := ex.Topo.InjShare(n); share < bw {
				bw = share
			}
		}
		if m.InterLatency > lat {
			lat = m.InterLatency
		}
	}
	steps := int(math.Ceil(math.Log2(float64(p))))
	for k := 0; k < steps; k++ {
		s := mbar * float64(bruckForwarded(p, k))
		t += (m.CollInject + lat + s/bw + 2*s/m.GPU.MemBW) * fmax
	}
	for r := 0; r < p; r++ {
		if ex.Members[r].Active {
			comp[r] = t
		}
	}
	return comp
}

func directNodeAware(ex *Exchange, start, factor []float64) []float64 {
	m := ex.M
	p := ex.Size
	ns := &nodeScratch{}
	ns.group(ex)
	comp := ns.comp
	for r := 0; r < p; r++ {
		comp[r] = start[r]
	}
	if p == 1 {
		return comp
	}
	nodeID, groups, worldNode := ns.nodeID, ns.groups, ns.worldNode
	n := len(groups)
	if n == 1 {
		// Flat group: the two-level schedule degenerates to NVLink streaming.
		return directRing(ex, start, factor)
	}

	// Fragment pipeline depth: each round's aggregate is cut into pipe
	// fragments that forward cut-through, so only about one fragment of the
	// gather is exposed before a round's wire transfer starts, and one
	// fragment of the scatter after it lands. Gather slices arrive at the
	// leader already packed per destination node, so no repack copies are
	// charged between the hops.
	pipe := float64(m.CollPipeline)
	if pipe < 1 {
		pipe = 1
	}

	// Each sending node is scheduled on its own from the flows its members
	// emit — its rounds chain on its own NIC and nothing but arrivals couples
	// it to the others — so the per-node-pair quantities live in scratch rows
	// that are cleared after every node: state is O(ranks + nodes), work is
	// O(flows). Every cross-rank combination below is a maximum or an integer
	// sum, so visiting flows instead of a dense node-pair matrix changes no
	// result; the floating-point chains (a sender's egress, a node's rounds)
	// run in the order they always did.
	agg, slice, arrive, up, inbound := ns.agg, ns.slice, ns.arrive, ns.up, ns.inbound
	rounds, upNodes, receivers := ns.rounds, ns.upNodes, ns.receivers
	for a := 0; a < n; a++ {
		// Per-node start: a node's gather and leader rounds begin once its own
		// active members have arrived. A node with no active member carries no
		// traffic and is skipped. Its gather and leader flows gate on the worst
		// degrade factor among its members.
		startN, fnode := math.Inf(-1), 1.0
		for _, r := range groups[a] {
			if f := factor[r]; f > fnode {
				fnode = f
			}
			if !ex.Members[r].Active {
				continue
			}
			if s := start[r] + ex.overhead(r); s > startN {
				startN = s
			}
		}
		if math.IsInf(startN, -1) {
			continue
		}
		leader := groups[a][0]

		// Members' rows: aggregate the node's off-node traffic per destination
		// node and per receiver, find the slowest gather contribution per
		// destination node, and run each sender's egress.
		rounds, receivers = rounds[:0], receivers[:0]
		for _, r := range groups[a] {
			upNodes = upNodes[:0]
			for _, f := range ex.Members[r].Flows {
				b := nodeID[f.Dst]
				if b == a {
					continue
				}
				if agg[b] == 0 {
					rounds = append(rounds, (b-a+n)%n)
				}
				agg[b] += f.Bytes
				if inbound[f.Dst] == 0 {
					receivers = append(receivers, f.Dst)
				}
				inbound[f.Dst] += f.Bytes
				if r != leader {
					if up[b] == 0 {
						upNodes = append(upNodes, b)
					}
					up[b] += f.Bytes
				}
			}
			// Gather: a non-leader packs its off-node blocks per destination
			// node and sends each slice to the leader; the flows of different
			// members run concurrently on distinct NVLinks, so a slice is gated
			// by its slowest contributor. The leader's own blocks need no
			// gather.
			gathered := 0
			for _, b := range upNodes {
				if c := (m.CollInject + float64(up[b])/m.IntraBW) * factor[r]; c > slice[b] {
					slice[b] = c
				}
				gathered += up[b]
				up[b] = 0
			}
			if !ex.Members[r].Active {
				continue
			}
			// Sender-side egress and direct intra-node traffic. A non-leader's
			// NVLink port first drains its gather slices, then streams its
			// intra-node blocks directly to their destinations; leaders stream
			// intra-node blocks from the start (their NIC activity rides a
			// separate port).
			eg := start[r] + ex.overhead(r)
			if gathered > 0 {
				eg += (float64(len(upNodes))*m.CollInject + float64(gathered)/m.IntraBW) * factor[r]
			}
			for _, f := range ex.Members[r].Flows {
				if nodeID[f.Dst] != a {
					continue
				}
				eg += (m.CollInject + float64(f.Bytes)/m.IntraBW) * factor[r]
				if arr := eg + m.IntraLatency; arr > comp[f.Dst] {
					comp[f.Dst] = arr
				}
			}
			if eg > comp[r] {
				comp[r] = eg
			}
		}

		// Gather pipeline and leader exchange, in round order: in its k-th
		// round the node sends its aggregate to node (a+k) mod n. Slices drain
		// in round order: a slice's first fragment is leader-resident one
		// fragment after the gather reaches it (the wire may start streaming
		// then), its last byte leaves its source NVLink a full slice later (the
		// wire cannot finish before it). Rounds chain on the node's NIC — a
		// round starts once the previous one drained and its slice's first
		// fragment is there, and cannot end before the slice's last byte (a
		// slow gather — single sparse contributor — starves the wire). Rounds
		// with no traffic cost nothing. An aggregate lands one wire latency
		// after its round ends.
		sort.Ints(rounds)
		gather, wire := startN, startN
		for _, k := range rounds {
			b := (a + k) % n
			gready, gdone := gather, gather
			if slice[b] > 0 {
				gready = gather + slice[b]/pipe + m.IntraLatency
				gather += slice[b]
				gdone = gather + m.IntraLatency
			}
			ready := wire
			if gready > ready {
				ready = gready
			}
			bw := ex.Topo.LeaderBW(worldNode[a], len(groups[a]))
			wire = ready + (m.CollInject+float64(agg[b])/bw)*fnode
			if gdone > wire {
				wire = gdone
			}
			arrive[b] = wire + m.InterLatency
			agg[b], slice[b] = 0, 0
		}
		// The leader finishes no earlier than its last send round drained.
		if ex.Members[leader].Active && wire > comp[leader] {
			comp[leader] = wire
		}

		// Scatter: when a round lands, the aggregate forwards cut-through —
		// each receiver's last fragment hops the NVLink after the wire
		// finishes; scatters of earlier rounds overlap later rounds (NVLink
		// and the NIC are distinct ports). The receiving leader holds its own
		// blocks at arrival.
		for _, d := range receivers {
			b := nodeID[d]
			done := arrive[b]
			if d != groups[b][0] {
				done += (m.CollInject+float64(inbound[d])/pipe/m.IntraBW)*factor[d] + m.IntraLatency
			}
			if done > comp[d] {
				comp[d] = done
			}
			inbound[d] = 0
		}
	}
	ns.rounds, ns.upNodes, ns.receivers = rounds, upNodes, receivers
	return comp
}

// nodeScratch is directNodeAware's working state: the node grouping and the
// rows it accumulates into, cleared after every node.
type nodeScratch struct {
	nodeID    []int   // exchange rank → dense node id, in first-seen (rank) order
	groups    [][]int // dense node id → exchange ranks, ascending
	worldNode []int   // dense node id → node of the world

	comp    []float64 // completion time per exchange rank
	agg     []int     // this node's aggregate per destination node
	slice   []float64 // slowest non-leader gather contribution per destination node
	arrive  []float64 // when this node's aggregate lands at each destination node
	up      []int     // one member's off-node bytes per destination node
	inbound []int     // this node's bytes per off-node receiver
	// The entries of the rows above that are in use: this node's rounds
	// (cyclic distances to the nodes it sends to), one member's destination
	// nodes, this node's off-node receivers.
	rounds, upNodes, receivers []int
}

func (ns *nodeScratch) group(ex *Exchange) {
	p := ex.Size
	if len(ns.nodeID) == p {
		return
	}
	ns.nodeID = make([]int, p)
	seen := map[int]int{}
	var sizes []int
	for r := 0; r < p; r++ {
		wn := ex.Topo.Node(ex.Members[r].World)
		id, ok := seen[wn]
		if !ok {
			id = len(sizes)
			seen[wn] = id
			sizes = append(sizes, 0)
			ns.worldNode = append(ns.worldNode, wn)
		}
		ns.nodeID[r] = id
		sizes[id]++
	}
	n := len(sizes)
	ranks := make([]int, 0, p)
	ns.groups = make([][]int, n)
	for id, sz := range sizes {
		ns.groups[id] = ranks[len(ranks) : len(ranks) : len(ranks)+sz]
		ranks = ranks[:len(ranks)+sz]
	}
	for r, id := range ns.nodeID {
		ns.groups[id] = append(ns.groups[id], r)
	}
	ns.comp, ns.inbound = make([]float64, p), make([]int, p)
	ns.agg, ns.up = make([]int, n), make([]int, n)
	ns.slice, ns.arrive = make([]float64, n), make([]float64, n)
}
