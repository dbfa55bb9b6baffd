package mpisim

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// Request is the handle of a non-blocking operation, completed by Wait,
// Waitany or Waitall.
type Request struct {
	comm *Comm
	// isend requests:
	isSend     bool
	completeAt float64
	sendBytes  int
	// irecv requests:
	src, tag int
	msg      *message
	done     bool
}

// postSend computes the cost of a message, books the sender's port, deposits
// the message in the destination mailbox, and returns the virtual time at
// which the sender's participation ends (port drained).
func (c *Comm) postSend(dst, tag int, b Buf) (portDone float64, cost float64) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpisim: send to invalid rank %d (size %d)", dst, c.Size()))
	}
	w := c.core.world
	w.checkFailed()
	eff := c.faultEnter("send")
	st := c.state()
	if w.opts.Integrity.Checksums {
		// Envelope compute rides the sender's clock before the post.
		c.chargeChecksum("checksum", b.Bytes())
	}
	srcW, dstW := c.WorldRank(c.rank), c.WorldRank(dst)
	mc := w.model.MsgCostOn(b.Bytes(), w.topo.Path(srcW, dstW), w.nodes, b.Loc == machine.Device, w.opts.GPUAware, machine.ClassP2P)
	if eff.Factor > 1 {
		// Degraded link: serialization and latency scale, software costs don't.
		mc.PortTime *= eff.Factor
		mc.Latency *= eff.Factor
	}

	st.clock += mc.PostOverhead + mc.PreStage
	start := math.Max(st.clock, st.portFreeAt)
	st.portFreeAt = start + mc.PortTime

	m := &message{
		commID:       c.core.id,
		src:          c.rank,
		tag:          tag,
		buf:          b.clone(),
		arrival:      st.portFreeAt + mc.Latency,
		postStage:    mc.PostStage,
		recvOverhead: mc.RecvOverhead,
	}
	if eff.Drop {
		// The sender proceeds normally (it cannot know); the receiver claims
		// a tombstone whose wait is bounded by the exchange timeout.
		m.dropped = true
		m.buf = Buf{Loc: m.buf.Loc}
		m.arrival = math.Inf(1)
	}
	if eff.Corrupt {
		m.buf.Corrupt = true
	}
	if eff.Silent > 0 {
		// Silent corruption: carried as transport-private metadata until the
		// delivery boundary, where it is either repaired (checksummed
		// transport) or really flipped into the payload.
		m.buf.silent = eff.Silent
		m.buf.flipSeed = eff.SilentSeed
	}
	mb := w.mail[dstW]
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
	return st.portFreeAt, mc.Total()
}

// Send is a blocking standard-mode send: the caller's clock advances until
// its injection port has drained the message (buffer reusable).
func (c *Comm) Send(dst, tag int, b Buf) {
	st := c.state()
	start := st.clock
	portDone, _ := c.postSend(dst, tag, b)
	if portDone > st.clock {
		st.clock = portDone
	}
	c.record("MPI_Send", start, st.clock, b.Bytes())
}

// Isend is a non-blocking send; the returned request completes (buffer
// reusable) when the port drains. Payload data is copied eagerly (unless the
// buffer is sent with Move, which hands the receiver the backing array), so
// the caller may overwrite its buffer immediately in real time — virtual-time
// semantics still charge the port at Wait.
func (c *Comm) Isend(dst, tag int, b Buf) *Request {
	st := c.state()
	start := st.clock
	portDone, _ := c.postSend(dst, tag, b)
	c.record("MPI_Isend", start, st.clock, b.Bytes())
	return &Request{comm: c, isSend: true, completeAt: portDone, sendBytes: b.Bytes()}
}

// Irecv posts a non-blocking receive for the message from rank src with tag
// tag; both must match exactly (there are no wildcards).
func (c *Comm) Irecv(src, tag int) *Request {
	st := c.state()
	// Posting a receive costs a small fixed software overhead.
	oh := c.Model().HostOverheadP2P / 4
	c.record("MPI_Irecv", st.clock, st.clock+oh, 0)
	st.clock += oh
	return &Request{comm: c, src: src, tag: tag}
}

// claim blocks (in real time) until a message matching (src, tag) on this
// communicator is available, removes it from the mailbox and returns it.
// Messages from the same source match in post order (MPI ordering).
func (c *Comm) claim(src, tag int) *message {
	w := c.core.world
	mb := w.mail[c.WorldRank(c.rank)]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if w.failed.Load() {
			panic(worldAborted{})
		}
		for _, m := range mb.msgs {
			if m.claimed || m.commID != c.core.id {
				continue
			}
			if m.src == src && m.tag == tag {
				m.claimed = true
				c.compact(mb)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// compact drops claimed messages from the front of the mailbox queue.
func (c *Comm) compact(mb *mailbox) {
	i := 0
	for i < len(mb.msgs) && mb.msgs[i].claimed {
		i++
	}
	if i > 0 {
		mb.msgs = append([]*message(nil), mb.msgs[i:]...)
	}
}

// completeRecv advances the receiver clock for a claimed message, enforcing
// the per-exchange timeout: a message arriving past the bound (a stalled or
// degraded sender) or never (a dropped one) raises ErrExchangeTimeout
// instead of an unbounded wait.
func (c *Comm) completeRecv(m *message) {
	st := c.state()
	bound := c.core.world.timeoutBound()
	if m.dropped {
		if bound <= 0 {
			// No bound configured: the loss is still detected, immediately.
			c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: message from rank %d lost in transit",
				ErrExchangeTimeout, c.WorldRank(c.rank), c.WorldRank(m.src)))
		}
		c.timeoutFault("recv", st.clock, bound)
	}
	if bound > 0 && m.arrival > st.clock+bound {
		c.timeoutFault("recv", st.clock, bound)
	}
	if m.arrival > st.clock {
		st.clock = m.arrival
	}
	st.clock += m.postStage + m.recvOverhead
	if m.buf.Corrupt {
		c.raiseFault(fmt.Errorf("mpisim: %w: rank %d: payload from rank %d failed verification",
			ErrMessageCorrupt, c.WorldRank(c.rank), c.WorldRank(m.src)))
	}
	w := c.core.world
	if w.opts.Integrity.Checksums {
		c.chargeChecksum("checksum_verify", m.buf.Bytes())
		w.integ.ChecksumChecks.Add(1)
		if m.buf.silent > 0 {
			c.recoverBlock(m.src, &m.buf, "recv")
		}
	} else if m.buf.silent > 0 {
		m.buf.corruptPayload()
	}
}

// Waitany completes exactly one of the pending requests — the one with the
// earliest virtual completion — and returns its index and payload. To keep
// virtual time deterministic under arbitrary Go scheduling, it first ensures
// every pending receive has a matched message (senders never block in real
// time, so this cannot deadlock), then picks the true earliest.
func (c *Comm) Waitany(reqs []*Request) (int, Buf) {
	st := c.state()
	start := st.clock
	best := -1
	bestT := math.Inf(1)
	for i, r := range reqs {
		if r == nil || r.done {
			continue
		}
		var t float64
		if r.isSend {
			t = r.completeAt
		} else {
			if r.msg == nil {
				r.msg = c.claim(r.src, r.tag)
			}
			t = r.msg.arrival
		}
		if t < bestT {
			bestT = t
			best = i
		}
	}
	if best < 0 {
		panic("mpisim: Waitany with no pending requests")
	}
	r := reqs[best]
	r.done = true
	if r.isSend {
		if r.completeAt > st.clock {
			st.clock = r.completeAt
		}
		c.record("MPI_Waitany", start, st.clock, r.sendBytes)
		return best, Buf{}
	}
	c.completeRecv(r.msg)
	c.record("MPI_Waitany", start, st.clock, r.msg.buf.Bytes())
	return best, r.msg.buf
}

// Waitall completes all pending requests and returns the receive payloads
// (zero Buf at send-request indices).
func (c *Comm) Waitall(reqs []*Request) []Buf {
	out := make([]Buf, len(reqs))
	pending := 0
	for _, r := range reqs {
		if r != nil && !r.done {
			pending++
		}
	}
	for ; pending > 0; pending-- {
		i, b := c.Waitany(reqs)
		out[i] = b
	}
	return out
}
