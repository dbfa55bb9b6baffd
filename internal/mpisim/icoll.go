package mpisim

import "repro/internal/machine"

// CollRequest is the handle of a non-blocking collective (MPI_Ialltoallv),
// the mechanism behind the asynchronous communication/computation overlap
// explored by the turbulence and GPUDirect studies the paper cites ([28],
// [34], [35]): a rank posts the exchange, computes, and only pays the
// remaining communication time at Wait.
type CollRequest struct {
	comm       *Comm
	postedAt   float64
	completeAt float64
	recv       []Block // the blocks addressed to this rank, ascending by source
	done       bool
	bytes      int
	// op names the posting call in timeout and corruption errors.
	op string
	// waitName is the trace name of the completing wait. The dense
	// Ialltoallv records "MPI_Wait(coll)"; IalltoallvSparse records
	// "MPI_Alltoallv", so per-call breakdowns attribute the communication time
	// to the collective regardless of pipelining. The name is all that
	// differs: both are priced by the same schedules.
	waitName string
}

// IalltoallvSparse posts a non-blocking algorithm-scheduled all-to-all-v
// over sparse exchange vectors, described by pat or read off the send lists
// when pat is nil (see AlltoallvSparse): the exchange is
// scheduled immediately, but the caller pays only the posting overhead now
// and the remaining exchange time at WaitSparse, where it overlaps whatever
// local work ran in between (the chunked pipelined reshape packs the next
// chunk there). The exchange is priced exactly as the blocking
// AlltoallvSparse with the same algorithm. The blocks are delivered into recv at the post, so the send
// list is free when this returns; recv belongs to the request until the wait
// hands it back.
//
// Posting synchronizes in *real* time with the other ranks (they must all
// reach the post), but virtual time keeps the overlap semantics.
func (c *Comm) IalltoallvSparse(pat *Pattern, send, recv []Block, loc machine.Location, a Algo) *CollRequest {
	return c.ipostAlltoall(pat, send, recv, loc, scheduleOf(a), "MPI_Alltoallv")
}

// ipostAlltoall is the non-blocking post: the engine's rendezvous plus the
// posting overhead, which is all the caller pays until the wait.
func (c *Comm) ipostAlltoall(pat *Pattern, send, recv []Block, loc machine.Location, impl CollectiveAlgo, waitName string) *CollRequest {
	r := c.postAlltoall(pat, send, recv, loc, impl, "MPI_Ialltoallv")
	r.waitName = waitName
	st := c.state()
	st.clock += c.Model().HostOverheadColl
	c.record("MPI_Ialltoallv", r.postedAt, st.clock, r.bytes)
	return &r
}

// WaitSparse completes a non-blocking collective, advancing the clock to the
// exchange's completion (or not at all if local work already covered it), and
// returns this rank's own copies of the blocks addressed to it, ascending by
// source, in the recv list the post was lent (or a grown copy of it). The
// timeout bound covers post → completion: a straggler or a dropped
// contribution fails the wait instead of stretching it unboundedly.
func (c *Comm) WaitSparse(r *CollRequest) []Block {
	if r.done {
		panic("mpisim: wait on completed request")
	}
	if r.comm.core != c.core || r.comm.rank != c.rank {
		panic("mpisim: wait on another rank's request")
	}
	return c.finishAlltoall(r, r.waitName, c.state().clock)
}

// The dense pair below serves only the benchmark harness's layer replay
// (benchmark/replay.go); see the dense adapters in alltoall.go.

// Ialltoallv posts the vendor non-blocking MPI_Ialltoallv over a dense vector
// (send[dst]): its completion time is computed exactly as the blocking
// AlltoallvSparse's under AlgoLinear, and WaitColl records it as
// "MPI_Wait(coll)".
func (c *Comm) Ialltoallv(send []Buf) *CollRequest {
	blocks, loc := c.compress(send, "MPI_Ialltoallv")
	return c.ipostAlltoall(nil, blocks, nil, loc, linearAlgo{}, "MPI_Wait(coll)")
}

// WaitColl is WaitSparse returning the received buffers indexed by source
// rank.
func (c *Comm) WaitColl(r *CollRequest) []Buf {
	return c.expand(c.WaitSparse(r))
}
