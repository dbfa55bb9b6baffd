package core

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/tensor"
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
	group *mpisim.Comm
	// members maps group rank → parent comm rank (sorted ascending).
	members     []int
	myGroupRank int
	// sends[gi] is the part of my `from` box that group member gi owns in
	// the target distribution; recvs[gi] the part of my `to` box that gi
	// owns in the source distribution. Either may be empty.
	sends, recvs []tensor.Box3

	// stats is the group-global exchange shape driving collective-algorithm
	// selection and chunking (see comm.go).
	stats exchStats
}

// reshapeGroups is the once-per-world group analysis of a reshape: the
// connected components of the "data moves between i and j" graph.
type reshapeGroups struct {
	color   []int         // component root per rank, -1 when uninvolved
	members map[int][]int // root → sorted member ranks
}

// computeReshapeGroups runs union-find over the rank overlap graph. This is
// O(size²) box intersections, so it is memoized per world (see buildReshape)
// instead of being repeated by all 3072 ranks of the biggest experiments.
func computeReshapeGroups(from, to []tensor.Box3) *reshapeGroups {
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
	for i := 0; i < size; i++ {
		if from[i].Empty() {
			continue
		}
		for j := 0; j < size; j++ {
			if !tensor.Intersect(from[i], to[j]).Empty() {
				union(i, j)
			}
		}
	}
	g := &reshapeGroups{color: make([]int, size), members: map[int][]int{}}
	for r := 0; r < size; r++ {
		if from[r].Empty() && to[r].Empty() {
			g.color[r] = -1
			continue
		}
		root := find(r)
		g.color[r] = root
		g.members[root] = append(g.members[root], r) // ascending by construction
	}
	return g
}

// buildReshape collectively constructs a reshape phase. Every rank of c must
// call it with identical box lists.
func buildReshape(c *mpisim.Comm, from, to []tensor.Box3, label string, tag int) *reshapePlan {
	key := fmt.Sprintf("core/reshape/%x", hashBoxes(from, to))
	g := c.World().Shared(key, func() any { return computeReshapeGroups(from, to) }).(*reshapeGroups)

	me := c.Rank()
	color := g.color[me]
	group := c.Split(color, me)

	rs := &reshapePlan{label: label, tag: tag, from: from[me], to: to[me]}
	if group == nil {
		return rs
	}
	rs.group = group
	rs.myGroupRank = group.Rank()
	rs.members = g.members[color]
	if len(rs.members) != group.Size() {
		panic(fmt.Sprintf("core: reshape %s: computed %d members, split gave %d", label, len(rs.members), group.Size()))
	}
	rs.sends = make([]tensor.Box3, group.Size())
	rs.recvs = make([]tensor.Box3, group.Size())
	for gi, r := range rs.members {
		rs.sends[gi] = tensor.Intersect(from[me], to[r])
		rs.recvs[gi] = tensor.Intersect(from[r], to[me])
	}
	// Exchange-shape statistics are O(group²) and identical for every member;
	// memoize per world, keyed by boxes + placement (different parent comms
	// may share box lists but map to different nodes).
	statsKey := fmt.Sprintf("core/reshape-stats/%x/%d/%x", hashBoxes(from, to), color, hashInts(worldRanksOf(c, rs.members)))
	rs.stats = c.World().Shared(statsKey, func() any {
		return computeExchStats(c.Topo(), c.WorldRank, from, to, rs.members)
	}).(exchStats)
	return rs
}

// worldRanksOf maps parent-comm ranks to world ranks.
func worldRanksOf(c *mpisim.Comm, ranks []int) []int {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		out[i] = c.WorldRank(r)
	}
	return out
}

// hashInts is hashBoxes' flavour for rank lists.
func hashInts(vs []int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range vs {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}

// hashBoxes returns an FNV-1a content hash of box lists, used as the
// memoization key for the group analysis (a pure function of the boxes).
func hashBoxes(lists ...[]tensor.Box3) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v int) {
		h ^= uint64(uint32(v))
		h *= prime
	}
	for _, l := range lists {
		mix(len(l))
		for _, b := range l {
			for d := 0; d < 3; d++ {
				mix(b.Lo[d])
				mix(b.Hi[d])
			}
		}
	}
	return h
}

// mkBuf wraps a typed slice (or a phantom element count) as a message
// payload at the given wire precision. Phantom buffers carry the precision
// too, so cost-only runs bill byte-identical transport charges.
func mkBuf[T any](data []T, phantomElems int, wire WirePrecision) mpisim.Buf {
	if data == nil {
		var zero T
		_, isReal := any(zero).(float64)
		return mpisim.Buf{N: phantomElems, PhantomReal: isReal, Loc: machine.Device, Wire: wire}
	}
	switch d := any(data).(type) {
	case []complex128:
		return mpisim.Buf{Data: d, Loc: machine.Device, Wire: wire}
	case []float64:
		return mpisim.Buf{Real: d, Loc: machine.Device, Wire: wire}
	default:
		panic("core: unsupported payload element type")
	}
}

// bufSlice extracts the typed payload of a received buffer.
func bufSlice[T any](b mpisim.Buf) []T {
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
func recycleRecv[T any](b mpisim.Buf) {
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
