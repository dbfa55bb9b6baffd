// Package sched is the scheduler core of the FFT serving layer
// (heffte/serve): a generic request coalescer with admission control.
//
// Requests are submitted under a string key (for the FFT service: global
// extents, decomposition, precision, direction). Same-key requests that
// arrive within a configurable window — or that pile up while every worker
// is busy — are fused into one batch and handed to the Runner together,
// which is exactly the shape the batched-transform engine (Plan.ForwardBatch)
// amortizes fixed per-exchange costs over. Admission is bounded: once
// MaxQueue requests are pending, Submit fast-fails with ErrOverloaded
// instead of queueing unboundedly. Per-request deadlines ride on
// context.Context: a request whose deadline expires before its batch starts
// is dropped and fails with ErrDeadlineExceeded; one cancelled mid-execution
// returns early to its submitter while its batch-mates complete untouched.
//
// The package is deliberately independent of the FFT engine so the policy
// (batching, backpressure, stats) is testable without simulated worlds.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Runner executes one coalesced batch. All payloads share the batch's key;
// the error (nil or not) is delivered to every request of the batch. Runners
// may be invoked concurrently from multiple workers, including for the same
// key.
type Runner[T any] func(key string, payloads []T) error

// Config tunes a Scheduler. Zero fields take the documented defaults.
type Config struct {
	// Workers is the number of batch-executing goroutines (default 2). It
	// bounds how many batches run concurrently.
	Workers int
	// MaxQueue bounds admitted-but-unstarted requests across all keys
	// (default 256); beyond it Submit fails fast with ErrOverloaded.
	MaxQueue int
	// Window is how long the first request of a batch waits for same-key
	// company before the batch becomes runnable (default 0: immediately
	// runnable). Batches are cut when a worker picks them up, so under load
	// requests keep coalescing past the window until a worker frees up or
	// MaxBatch is hit.
	Window time.Duration
	// MaxBatch caps how many requests fuse into one runner call (default 16).
	MaxBatch int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	return c
}

// Request lifecycle states (item.state).
const (
	stQueued    int32 = iota // waiting in a key queue
	stTaken                  // claimed by a worker, executing
	stAbandoned              // submitter gave up before a worker claimed it
	stDone                   // finished (err set, done closed)
)

type item[T any] struct {
	payload   T
	state     atomic.Int32
	err       error // valid once done is closed
	done      chan struct{}
	deadline  time.Time // zero when the context carries none
	submitted time.Time
}

type queue[T any] struct {
	key   string
	items []*item[T]
	// ready marks the queue runnable: its window expired (or never applied).
	// A ready queue with items sits in Scheduler.ready for workers to drain.
	ready   bool
	inReady bool
	timer   *time.Timer
}

// Scheduler coalesces same-key requests into batches executed on a bounded
// worker pool. Safe for concurrent use.
type Scheduler[T any] struct {
	cfg Config
	run Runner[T]

	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*queue[T]
	ready   []*queue[T] // FIFO of runnable queues
	pending int         // admitted, not yet claimed by a worker
	closed  bool

	wg    sync.WaitGroup
	stats *statsCore
}

// New starts a scheduler with cfg.Workers worker goroutines. Callers must
// Close it to stop them.
func New[T any](cfg Config, run Runner[T]) *Scheduler[T] {
	s := &Scheduler[T]{cfg: cfg.withDefaults(), run: run, queues: map[string]*queue[T]{}, stats: newStatsCore()}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit enqueues one request under key and blocks until its batch executed
// (returning the runner's error), the queue rejected it (ErrOverloaded), or
// ctx ended first. A context that ends before the batch starts removes the
// request from its batch; one that ends mid-execution only stops the wait —
// the batch still completes for its other members, and the payload remains
// owned by the scheduler until it does.
func (s *Scheduler[T]) Submit(ctx context.Context, key string, payload T) error {
	if err := ctx.Err(); err != nil {
		s.stats.bump(key, func(k *KeyStats) {
			if err == context.DeadlineExceeded {
				k.DeadlineExceeded++
			} else {
				k.Cancelled++
			}
		})
		return ctxError(err)
	}
	it := &item[T]{payload: payload, done: make(chan struct{}), submitted: time.Now()}
	if d, ok := ctx.Deadline(); ok {
		it.deadline = d
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("sched: %w", ErrClosed)
	}
	if s.pending >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.stats.bump(key, func(k *KeyStats) { k.Rejected++ })
		return fmt.Errorf("sched: %w: %d requests pending (limit %d)", ErrOverloaded, s.cfg.MaxQueue, s.cfg.MaxQueue)
	}
	s.pending++
	q := s.queues[key]
	if q == nil {
		q = &queue[T]{key: key}
		s.queues[key] = q
	}
	q.items = append(q.items, it)
	s.stats.bump(key, func(k *KeyStats) { k.Submitted++ })
	switch {
	case q.ready:
		// Past its window already (e.g. the remainder of a MaxBatch cut):
		// make sure workers see it.
		s.enqueueReady(q)
	case len(q.items) >= s.cfg.MaxBatch || s.cfg.Window <= 0:
		s.makeReady(q)
	case len(q.items) == 1:
		q.timer = time.AfterFunc(s.cfg.Window, func() {
			s.mu.Lock()
			s.makeReady(q)
			s.mu.Unlock()
		})
	}
	s.mu.Unlock()

	select {
	case <-it.done:
		return it.err
	case <-ctx.Done():
		if it.state.CompareAndSwap(stQueued, stAbandoned) {
			// Still queued: the claiming worker will skip it.
			s.stats.bump(key, func(k *KeyStats) {
				if ctx.Err() == context.DeadlineExceeded {
					k.DeadlineExceeded++
				} else {
					k.Cancelled++
				}
			})
			return ctxError(ctx.Err())
		}
		select {
		case <-it.done:
			// Raced with completion: deliver the real result.
			return it.err
		default:
		}
		// Mid-execution: stop waiting, the batch finishes without us.
		s.stats.bump(key, func(k *KeyStats) { k.Cancelled++ })
		return ctxError(ctx.Err())
	}
}

// ctxError wraps a context error in the matching sentinel so callers can use
// errors.Is against either the sched sentinel or the context error.
func ctxError(err error) error {
	if err == context.DeadlineExceeded {
		return fmt.Errorf("sched: %w: %w", ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("sched: request cancelled: %w", err)
}

// makeReady (locked) marks q runnable: its window is over. Empty queues just
// reset so the next arrival opens a fresh window.
func (s *Scheduler[T]) makeReady(q *queue[T]) {
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	if len(q.items) == 0 {
		q.ready = false
		return
	}
	q.ready = true
	s.enqueueReady(q)
}

func (s *Scheduler[T]) enqueueReady(q *queue[T]) {
	if q.inReady || len(q.items) == 0 {
		return
	}
	q.inReady = true
	s.ready = append(s.ready, q)
	s.cond.Signal()
}

func (s *Scheduler[T]) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.ready) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.ready) == 0 {
			s.mu.Unlock()
			return
		}
		q := s.ready[0]
		take := len(q.items)
		if take > s.cfg.MaxBatch {
			take = s.cfg.MaxBatch
		}
		batch := q.items[:take:take]
		q.items = append([]*item[T](nil), q.items[take:]...)
		s.pending -= take
		if len(q.items) == 0 {
			q.ready = false
			q.inReady = false
			s.ready = s.ready[1:]
		} else {
			// Rotate so other keys are not starved by one hot shape.
			s.ready = append(s.ready[1:], q)
		}
		s.mu.Unlock()
		s.execBatch(q.key, batch)
	}
}

// execBatch claims the batch's items, drops expired/abandoned ones, runs the
// survivors through the runner and completes them.
func (s *Scheduler[T]) execBatch(key string, batch []*item[T]) {
	now := time.Now()
	items := make([]*item[T], 0, len(batch))
	payloads := make([]T, 0, len(batch))
	for _, it := range batch {
		if !it.state.CompareAndSwap(stQueued, stTaken) {
			continue // abandoned by its submitter
		}
		if !it.deadline.IsZero() && now.After(it.deadline) {
			it.err = fmt.Errorf("sched: %w: expired after %s in queue", ErrDeadlineExceeded, now.Sub(it.submitted).Round(time.Microsecond))
			it.state.Store(stDone)
			close(it.done)
			s.stats.bump(key, func(k *KeyStats) { k.DeadlineExceeded++ })
			continue
		}
		items = append(items, it)
		payloads = append(payloads, it.payload)
	}
	if len(items) == 0 {
		return
	}
	s.stats.bump(key, func(k *KeyStats) {
		k.Batches++
		k.BatchedItems += uint64(len(items))
		k.InFlight += len(items)
		k.BatchSizes.observe(float64(len(items)))
	})
	err := s.run(key, payloads)
	// A runner may fail items independently (BatchErrors, index-aligned):
	// each submitter receives its own error and is counted by its own outcome.
	perItem := func(i int) error { return err }
	var be *BatchErrors
	if errors.As(err, &be) && len(be.Errs) == len(items) {
		perItem = func(i int) error { return be.Errs[i] }
	}
	end := time.Now()
	// Count the batch before waking its submitters, so a submitter that reads
	// Stats after Submit returns sees its own outcome.
	s.stats.bump(key, func(k *KeyStats) {
		k.InFlight -= len(items)
		for i, it := range items {
			if perItem(i) != nil {
				k.Failed++
			} else {
				k.Completed++
			}
			k.Latency.observe(end.Sub(it.submitted).Seconds())
		}
	})
	for i, it := range items {
		it.err = perItem(i)
		it.state.Store(stDone)
		close(it.done)
	}
}

// Stats returns a point-in-time snapshot of the per-key counters.
func (s *Scheduler[T]) Stats() Stats { return s.stats.snapshot() }

// Close stops admission, drains every queued request through the workers
// (executing them — a graceful shutdown, not an abort) and waits for the
// workers to exit. Close is idempotent.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, q := range s.queues {
			s.makeReady(q)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}
