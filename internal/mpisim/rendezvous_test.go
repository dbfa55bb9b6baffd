package mpisim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
)

// The rendezvous wake protocol under aborts (rendezvous.exchange, rules 3
// and 4): a member woken in a failed world leaves with its output when its
// round was computed, and a leader's wake never blocks on a slot an abort has
// filled. make race runs both at 1, 2 and 8 processors.

var errTestFail = errors.New("test: rank 0 fails the world")

// TestCompletedRoundSurvivesAbort: rank 0 fails the world as soon as its
// Allreduce returns. Every other rank's round is computed by then, so each
// must leave with the reduced value — whether it wakes on the leader's token
// or on the abort's.
func TestCompletedRoundSurvivesAbort(t *testing.T) {
	const size, rounds = 8, 200
	for i := 0; i < rounds; i++ {
		got := make([]float64, size)
		res := NewWorld(machine.Summit(), size, Options{}).Run(func(c *Comm) {
			got[c.Rank()] = c.Allreduce(float64(c.Rank()+1), OpSum)
			if c.Rank() == 0 {
				c.Fail(errTestFail)
			}
		})
		if !errors.Is(res.Err, errTestFail) {
			t.Fatalf("run %d: Result.Err = %v, want the failing rank's error", i, res.Err)
		}
		for r, v := range got[1:] {
			if v != size*(size+1)/2 {
				t.Fatalf("run %d: rank %d left its computed round with %g, want %d", i, r+1, v, size*(size+1)/2)
			}
		}
	}
}

// TestRepeatedAbortsNeverBlockALeader: abort runs once per failing rank, so
// a wake slot can hold a token after its rank has taken one and gone. Ranks 0
// and 1 share a communicator; while rank 1 leads their round, rank 2's Fail
// wakes rank 0 (which then waits for the lock the leader holds) and rank 3's
// Fail fills rank 0's slot again. Rank 0 leaves with its output and never
// waits again, so a leader whose wake blocked on that slot would hang Run.
// (Each Fail runs under Protect, so it aborts exactly once.)
func TestRepeatedAbortsNeverBlockALeader(t *testing.T) {
	for i := 0; i < 20; i++ {
		w := NewWorld(machine.Summit(), 4, Options{})
		fail := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		failed := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		var out collOut
		done := make(chan Result, 1)
		go func() {
			done <- w.Run(func(c *Comm) {
				pair := c.Split(c.Rank()/2, c.Rank())
				rv := pair.core.rv
				switch c.Rank() {
				case 0:
					out = rv.exchange(w, 0, collIn{}, nil)
				case 1:
					for !rv.holds(1) {
						runtime.Gosched()
					}
					slot := w.states[0].slot
					rv.exchange(w, 1, collIn{}, func(ins []collIn, outs []collOut) {
						outs[0].val = 1
						close(fail[0])
						<-failed[0]
						for len(slot) > 0 {
							runtime.Gosched()
						}
						close(fail[1])
						<-failed[1]
					})
				default:
					k := c.Rank() - 2
					<-fail[k]
					c.Protect(func() { c.Fail(errTestFail) })
					close(failed[k])
				}
			})
		}()
		select {
		case res := <-done:
			if !errors.Is(res.Err, errTestFail) {
				t.Fatalf("run %d: Result.Err = %v, want the failing ranks' error", i, res.Err)
			}
			if out.val != 1 {
				t.Fatalf("run %d: rank 0 left its computed round with %g, want 1", i, out.val)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run %d: World.Run did not return: the leader's wake blocked on a filled slot", i)
		}
	}
}

// holds reports whether the round taking deposits has n arrivals.
func (rv *rendezvous) holds(n int) bool {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.round != nil && rv.round.arrived == n
}
