package mpisim

import (
	"testing"

	"repro/internal/machine"
)

// TestMoveSemantics checks the two ownership modes of Buf: the default copies
// the payload (sender may reuse its buffer), while Move hands the receiver
// the sender's backing array without a copy. Virtual timings must be
// identical either way — ownership is a host-memory concern, not a modelled
// cost.
func TestMoveSemantics(t *testing.T) {
	run := func(move bool) (received []complex128, shared bool, clock float64) {
		w := NewWorld(machine.Summit(), 2, Options{GPUAware: true})
		var sent []complex128
		res := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				payload := []complex128{1, 2, 3, 4}
				sent = payload
				c.Send(1, 7, Buf{Data: payload, Loc: machine.Device, Move: move})
			} else {
				b := recv(c, 0, 7)
				received = b.Data
			}
		})
		return received, &received[0] == &sent[0], res.MaxClock
	}

	gotCopy, sharedCopy, clockCopy := run(false)
	gotMove, sharedMove, clockMove := run(true)

	if sharedCopy {
		t.Error("default send aliased the sender's buffer; expected a defensive copy")
	}
	if !sharedMove {
		t.Error("Move send copied the payload; expected ownership transfer by reference")
	}
	for i := range gotCopy {
		if gotCopy[i] != gotMove[i] {
			t.Fatalf("payload differs between copy and move at %d", i)
		}
	}
	if clockCopy != clockMove {
		t.Errorf("virtual time changed with Move: copy=%g move=%g", clockCopy, clockMove)
	}
}

// TestMoveThroughCollective checks that Alltoallv honours Move the same way.
func TestMoveThroughCollective(t *testing.T) {
	const size = 4
	w := NewWorld(machine.Summit(), size, Options{GPUAware: true})
	sent := make([][][]complex128, size)
	got := make([][][]complex128, size)
	w.Run(func(c *Comm) {
		me := c.Rank()
		send := make([]Buf, size)
		sent[me] = make([][]complex128, size)
		for dst := range send {
			payload := []complex128{complex(float64(me), float64(dst))}
			sent[me][dst] = payload
			send[dst] = Buf{Data: payload, Loc: machine.Device, Move: true}
		}
		recv := alltoallvDense(c, send)
		got[me] = make([][]complex128, size)
		for src := range recv {
			got[me][src] = recv[src].Data
		}
	})
	for dst := 0; dst < size; dst++ {
		for src := 0; src < size; src++ {
			if &got[dst][src][0] != &sent[src][dst][0] {
				t.Errorf("block %d→%d was copied despite Move", src, dst)
			}
		}
	}
}
