package mpisim

// Test adapters built on the library's entry points: a blocking receive and
// send-receive, and dense all-to-alls. The dense ones drive a send[dst] →
// recv[src] vector of one Buf per comm rank the way the dense library calls
// did: compress the vector into a send list, run the sparse call, expand the
// receive list by source rank. A dense caller and a sparse caller handing over
// the same blocks therefore land on the same clocks and receive the same
// payloads.

func alltoallDense(c *Comm, send []Buf) []Buf {
	blocks, loc := c.compress(send, "MPI_Alltoall")
	return c.expand(c.AlltoallSparse(nil, blocks, nil, loc))
}

// alltoallvDense is the vendor MPI_Alltoallv loop (AlgoLinear, blocking).
func alltoallvDense(c *Comm, send []Buf) []Buf {
	blocks, loc := c.compress(send, "MPI_Alltoallv")
	return c.expand(c.AlltoallvSparse(nil, blocks, nil, loc, AlgoLinear))
}

func alltoallwDense(c *Comm, send []Buf) []Buf {
	blocks, loc := c.compress(send, "MPI_Alltoallw")
	return c.expand(c.AlltoallwSparse(nil, blocks, nil, loc))
}

// ialltoallvDense posts the algorithm-scheduled non-blocking exchange;
// complete it with WaitColl for a dense receive vector.
func ialltoallvDense(c *Comm, send []Buf, a Algo) *CollRequest {
	blocks, loc := c.compress(send, "MPI_Ialltoallv")
	return c.IalltoallvSparse(nil, blocks, nil, loc, a)
}

// recv is the blocking MPI_Recv: wait until a matching message arrives and
// return its payload.
func recv(c *Comm, src, tag int) Buf {
	st := c.state()
	start := st.clock
	m := c.claim(src, tag)
	c.completeRecv(m)
	c.record("MPI_Recv", start, st.clock, m.buf.Bytes())
	return m.buf
}

// sendrecv is MPI_Sendrecv: the send and the receive progress concurrently.
func sendrecv(c *Comm, dst, sendTag int, b Buf, src, recvTag int) Buf {
	sreq := c.Isend(dst, sendTag, b)
	rbuf := recv(c, src, recvTag)
	c.wait(sreq)
	return rbuf
}

// wait completes a request. For receives it returns the received payload.
func (c *Comm) wait(r *Request) Buf {
	st := c.state()
	start := st.clock
	if r.done {
		panic("mpisim: wait on completed request")
	}
	if r.isSend {
		if r.completeAt > st.clock {
			st.clock = r.completeAt
		}
		r.done = true
		c.record("MPI_Wait(send)", start, st.clock, r.sendBytes)
		return Buf{}
	}
	if r.msg == nil {
		r.msg = c.claim(r.src, r.tag)
	}
	c.completeRecv(r.msg)
	r.done = true
	c.record("MPI_Wait(recv)", start, st.clock, r.msg.buf.Bytes())
	return r.msg.buf
}
