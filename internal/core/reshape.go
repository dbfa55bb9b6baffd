package core

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
	"repro/internal/topo"
)

// reshapePlan is one data transfer phase of Algorithm 1: moving the
// distributed array from one set of per-rank boxes to another. Ranks that
// hold no data on either side are excluded from the exchange group entirely
// (this is what makes FFT grid shrinking pay off: idle ranks cost nothing).
type reshapePlan struct {
	label string
	tag   int

	// interior marks a reshape strictly between compute stages: its payloads
	// are plan-internal staging data, so it is eligible for wire compression
	// (see wire.go). Input/output reshapes move caller data and always ship
	// full precision.
	interior bool

	from, to tensor.Box3 // this rank's boxes

	// group is the subcommunicator of ranks touching this exchange; nil when
	// this rank is not involved.
	group       *mpisim.Comm
	myGroupRank int
	// The blocks that exist, as runs of the world's shared reshapeTable:
	// sends.at(k) is the part of my `from` box that group rank sendPeers[k]
	// owns in the target distribution, recvs.at(k) the part of my `to` box
	// that group rank recvPeers[k] owns in the source distribution. Peers
	// ascend; a pair with an empty intersection is not listed, so nothing here
	// is sized by the group. The self block, when there is one, is
	// sends.at(selfSend) == recvs.at(selfRecv) (-1 otherwise).
	sendPeers, recvPeers []int
	sends, recvs         boxRun
	selfSend, selfRecv   int

	// stats is the group-global exchange shape driving chunking (see comm.go);
	// table holds what schedule selection and chunking resolved to, and the
	// exchange patterns that follow, one row per (on-wire element size, batch
	// width) the plan has run at.
	stats exchStats
	table []*frozen

	// Where CollAuto finds the whole group's exchange matrix: the world's shared
	// analysis, this rank's exchange group in it, and whether this reshape runs
	// it backwards (reverseReshape).
	tab      *reshapeTable
	root     int
	reversed bool
}

// reshapeTable is the once-per-world analysis of a reshape between two
// distributions over one communicator: the exchange groups (connected
// components of the "data moves between i and j" graph), every group's
// exchange statistics, and the overlap adjacency — for each rank the peers it
// sends to and receives from, in ascending group rank, with the boxes that
// move. All ranks read the same immutable table; what a rank keeps
// (reshapePlan) is slices into it.
type reshapeTable struct {
	key       string             // the table's World.Shared key, prefix of what is memoized per group
	color     []int              // exchange-group root per rank, -1 when uninvolved
	groupRank []int              // rank within its exchange group
	members   map[int][]int      // root → member ranks, ascending (index = group rank)
	stats     map[int]*exchStats // root → group statistics (stats.gs is the group size)

	// Rank r sends the blocks [sendOff[r], sendOff[r+1]) of sendPeers/boxes
	// and receives the blocks [recvOff[r], recvOff[r+1]) of recvPeers. Each
	// overlap box is stored once, on the send side: receive entry j is the
	// overlap boxes[recvBox[j]].
	sendOff, recvOff     []int
	sendPeers, recvPeers []int
	boxes                []tensor.Box3
	recvBox              []int32
}

// boxRun is one rank's run of a reshape table's overlap boxes: entry k is
// boxes[idx[k]], or boxes[k] when there is no index (the send side, where a
// rank's boxes are contiguous).
type boxRun struct {
	boxes []tensor.Box3
	idx   []int32
}

func (b boxRun) at(k int) tensor.Box3 {
	if b.idx == nil {
		return b.boxes[k]
	}
	return b.boxes[b.idx[k]]
}

// run returns the entries [lo, hi) of the send side (idx nil) or of the
// receive side (idx the table's recvBox).
func (t *reshapeTable) run(lo, hi int, idx []int32) boxRun {
	if idx == nil {
		return boxRun{boxes: t.boxes[lo:hi:hi]}
	}
	return boxRun{boxes: t.boxes, idx: idx[lo:hi:hi]}
}

// computeReshapeTable finds every non-empty (from[i], to[j]) overlap once,
// through a box index over the targets (eachOverlap: work grows with the
// overlaps, not with size²), and keeps what the pass finds: union-find over
// the overlap graph gives the groups, the non-empty overlaps are the
// adjacency, and the statistics are accumulated from those same entries. The
// result is memoized per world (see buildReshape) instead of being repeated by
// all 3072 ranks of the biggest experiments.
func computeReshapeTable(sys *topo.System, worldOf func(int) int, from, to []tensor.Box3) *reshapeTable {
	size := len(from)
	parent := make([]int, size)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // root is the smallest rank, for determinism
		}
	}
	// Overlaps in (source, destination) order: source i's sends are the span
	// [off[i], off[i+1]), ascending in destination.
	t := &reshapeTable{color: make([]int, size), groupRank: make([]int, size),
		members: map[int][]int{}, stats: map[int]*exchStats{},
		sendOff: make([]int, size+1), recvOff: make([]int, size+1)}
	var dsts []int
	eachOverlap(from, to, func(i, j int) bool {
		union(i, j)
		dsts = append(dsts, j)
		t.sendOff[i+1]++
		t.recvOff[j+1]++
		return true
	})
	for i := 0; i < size; i++ {
		t.sendOff[i+1] += t.sendOff[i]
	}
	nnz := len(dsts)

	for r := 0; r < size; r++ {
		if from[r].Empty() && to[r].Empty() {
			t.color[r] = -1
			continue
		}
		root := find(r)
		t.color[r] = root
		t.groupRank[r] = len(t.members[root])
		t.members[root] = append(t.members[root], r) // ascending by construction
	}

	// The blocks, exactly sized, and the statistics from the off-diagonal
	// ones. Every quantity is a count, an integer sum or an extremum, so the
	// order the entries are met in does not matter.
	for root, ms := range t.members {
		t.stats[root] = groupStats(sys, worldOf, ms)
	}
	t.boxes = make([]tensor.Box3, nnz)
	for i := 0; i < size; i++ {
		st := t.stats[t.color[i]] // nil for an uninvolved rank, which sends nothing
		for k := t.sendOff[i]; k < t.sendOff[i+1]; k++ {
			t.boxes[k] = tensor.Intersect(from[i], to[dsts[k]])
			if dsts[k] != i {
				st.add(t.boxes[k])
			}
		}
	}

	// The adjacency in group ranks, exactly sized. The receive side is the
	// transpose: sources are visited in ascending order, so every receive list
	// comes out ascending too.
	t.sendPeers = make([]int, nnz)
	t.recvPeers, t.recvBox = make([]int, nnz), make([]int32, nnz)
	for j := 0; j < size; j++ {
		t.recvOff[j+1] += t.recvOff[j]
	}
	next := append([]int(nil), t.recvOff[:size]...)
	for i := 0; i < size; i++ {
		for k := t.sendOff[i]; k < t.sendOff[i+1]; k++ {
			j := dsts[k]
			t.sendPeers[k] = t.groupRank[j]
			t.recvPeers[next[j]], t.recvBox[next[j]] = t.groupRank[i], int32(k)
			next[j]++
		}
	}
	return t
}

// pattern returns chunk ci of chunks of the exchange group rooted at root in
// the form mpisim prices, in group ranks: row i lists the blocks group rank i
// sends to other members, ascending by destination, and Self[i] its self
// block, at elemBytes bytes per element of the chunk of each pair box (empty
// chunks are not listed). A reversed reshape sends what the forward one
// receives, so its rows are read off the receive side of the adjacency.
func (t *reshapeTable) pattern(root int, reversed bool, elemBytes, ci, chunks int) *mpisim.Pattern {
	off, peers, idx := t.sendOff, t.sendPeers, []int32(nil)
	if reversed {
		off, peers, idx = t.recvOff, t.recvPeers, t.recvBox
	}
	members := t.members[root]
	nnz := 0
	for _, r := range members {
		nnz += off[r+1] - off[r]
	}
	flows := make([]mpisim.Flow, 0, nnz)
	pat := &mpisim.Pattern{Rows: make([][]mpisim.Flow, len(members)), Self: make([]int, len(members))}
	for i, r := range members {
		first := len(flows)
		boxes := t.run(off[r], off[r+1], idx)
		for k, peer := range peers[off[r]:off[r+1]] {
			switch by := chunkBox(boxes.at(k), ci, chunks).Volume() * elemBytes; {
			case peer == i:
				pat.Self[i] = by
			case by > 0:
				flows = append(flows, mpisim.Flow{Dst: peer, Bytes: by})
			}
		}
		pat.Rows[i] = flows[first:len(flows):len(flows)]
	}
	return pat
}

// pattern returns chunk ci of chunks of this reshape's exchange at elemBytes
// bytes per element (on-wire element size × batch width), memoized per world:
// every member of the group — and CollAuto's pricing of the unchunked
// exchange — reads the same rows.
func (rs *reshapePlan) pattern(elemBytes, ci, chunks int) *mpisim.Pattern {
	key := fmt.Sprintf("%s/pattern/%d/%t/%d/%d/%d", rs.tab.key, rs.root, rs.reversed, elemBytes, ci, chunks)
	return rs.group.World().Shared(key, func() any {
		return rs.tab.pattern(rs.root, rs.reversed, elemBytes, ci, chunks)
	}).(*mpisim.Pattern)
}

// buildReshape collectively constructs a reshape phase between two
// distributions of c. Every rank of c must call it with the same
// distributions.
func buildReshape(c *mpisim.Comm, ck uint64, from, to *dist, label string, tag int) *reshapePlan {
	// The analysis is a pure function of the boxes and of the communicator's
	// placement (different parent comms may share box lists but map to
	// different nodes).
	key := fmt.Sprintf("core/reshape/%x/%x/%x", from.hash, to.hash, ck)
	t := c.World().Shared(key, func() any {
		t := computeReshapeTable(c.Topo(), c.WorldRank, from.boxes, to.boxes)
		t.key = key
		return t
	}).(*reshapeTable)

	me := c.Rank()
	color := t.color[me]
	group := c.Split(color, me)

	rs := &reshapePlan{label: label, tag: tag, from: from.boxes[me], to: to.boxes[me], selfSend: -1, selfRecv: -1}
	if group == nil {
		return rs
	}
	rs.group = group
	rs.myGroupRank = group.Rank()
	rs.tab, rs.root = t, color
	rs.stats = *t.stats[color]
	if rs.stats.gs != group.Size() || t.groupRank[me] != rs.myGroupRank {
		panic(fmt.Sprintf("core: reshape %s: computed rank %d of %d members, split gave %d of %d",
			label, t.groupRank[me], rs.stats.gs, rs.myGroupRank, group.Size()))
	}
	lo, hi := t.sendOff[me], t.sendOff[me+1]
	rs.sendPeers, rs.sends = t.sendPeers[lo:hi:hi], t.run(lo, hi, nil)
	lo, hi = t.recvOff[me], t.recvOff[me+1]
	rs.recvPeers, rs.recvs = t.recvPeers[lo:hi:hi], t.run(lo, hi, t.recvBox)
	rs.selfSend, rs.selfRecv = indexOf(rs.sendPeers, rs.myGroupRank), indexOf(rs.recvPeers, rs.myGroupRank)
	return rs
}

// indexOf finds v in an ascending list (-1 when absent).
func indexOf(sorted []int, v int) int {
	if i := sort.SearchInts(sorted, v); i < len(sorted) && sorted[i] == v {
		return i
	}
	return -1
}

// commKey fingerprints a communicator's rank → world-rank map for the keys
// of placement-dependent shared analyses.
func commKey(c *mpisim.Comm) uint64 {
	h := uint64(fnvOffset)
	for r := 0; r < c.Size(); r++ {
		h ^= uint64(uint32(c.WorldRank(r)))
		h *= fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashBoxes returns an FNV-1a content hash of a box list, the memoization key
// of the analyses that are pure functions of the boxes.
func hashBoxes(l []tensor.Box3) uint64 {
	h := uint64(fnvOffset)
	mix := func(v int) {
		h ^= uint64(uint32(v))
		h *= fnvPrime
	}
	mix(len(l))
	for _, b := range l {
		for d := 0; d < 3; d++ {
			mix(b.Lo[d])
			mix(b.Hi[d])
		}
	}
	return h
}

// setBuf makes the zero Buf b the message payload of a typed slice (or of a
// phantom element count) at the given wire precision, in place — b is an
// entry of the send list being packed. Phantom buffers carry the precision
// too, so cost-only runs bill byte-identical transport charges.
func setBuf[T any](b *mpisim.Buf, data []T, phantomElems int, wire WirePrecision) {
	b.Loc, b.Wire = machine.Device, wire
	if data == nil {
		var zero T
		_, b.PhantomReal = any(zero).(float64)
		b.N = phantomElems
		return
	}
	switch d := any(data).(type) {
	case []complex128:
		b.Data = d
	case []float64:
		b.Real = d
	default:
		panic("core: unsupported payload element type")
	}
}

// bufSlice extracts the typed payload of a received buffer.
func bufSlice[T any](b *mpisim.Buf) []T {
	var zero T
	switch any(zero).(type) {
	case complex128:
		return any(b.Data).([]T)
	case float64:
		return any(b.Real).([]T)
	default:
		panic("core: unsupported payload element type")
	}
}

func elemBytes[T any]() int {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return 8
	}
	return 16
}

// recycleDatas returns plan-owned input arrays to the staging pool once their
// contents have been packed into send buffers. Arrays still owned by the
// caller (recycle == false) are left alone.
func recycleDatas[T any](datas [][]T, recycle bool) {
	if !recycle {
		return
	}
	for i, d := range datas {
		putBuf(d)
		datas[i] = nil
	}
}

// recycleRecv returns a received payload to the staging pool. Only buffers
// shipped with Move are plan-owned; anything else is left untouched.
func recycleRecv[T any](b *mpisim.Buf) {
	if b.Move && (b.Data != nil || b.Real != nil) {
		putBuf(bufSlice[T](b))
	}
}

// quantizeSlice rounds a packed block to the wire grid in place (no-op for
// fp64 and for phantom/nil slices).
func quantizeSlice[T any](w WirePrecision, data []T) {
	if w == WireFp64 || data == nil {
		return
	}
	switch d := any(data).(type) {
	case []complex128:
		w.QuantizeComplex(d)
	case []float64:
		w.QuantizeReal(d)
	}
}
