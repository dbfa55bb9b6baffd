package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectRunner records every batch it is handed.
type collectRunner struct {
	mu      sync.Mutex
	batches [][]int
	block   chan struct{} // when non-nil, RunBatch waits on it
	started chan struct{} // signalled once per RunBatch entry (buffered)
	err     error
}

func (r *collectRunner) run(key string, payloads []int) error {
	if r.started != nil {
		r.started <- struct{}{}
	}
	if r.block != nil {
		<-r.block
	}
	r.mu.Lock()
	r.batches = append(r.batches, append([]int(nil), payloads...))
	r.mu.Unlock()
	return r.err
}

func (r *collectRunner) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.batches))
	for i, b := range r.batches {
		out[i] = len(b)
	}
	return out
}

// TestMaxBatchFlush: hitting MaxBatch cuts the batch before the window ends.
func TestMaxBatchFlush(t *testing.T) {
	r := &collectRunner{}
	s := New(Config{Workers: 1, Window: time.Hour, MaxBatch: 4}, r.run)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Submit(context.Background(), "k", i); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("submits did not complete before the (1h) window: MaxBatch flush missing")
	}
	s.Close()
	sizes := r.batchSizes()
	total := 0
	for _, n := range sizes {
		total += n
	}
	if total != 4 {
		t.Fatalf("executed %d payloads, want 4 (batches %v)", total, sizes)
	}
	st := s.Stats()
	if st.Total.Completed != 4 {
		t.Fatalf("Completed = %d, want 4", st.Total.Completed)
	}
}

// TestWindowCoalesces: requests inside one window fuse into one batch.
func TestWindowCoalesces(t *testing.T) {
	r := &collectRunner{}
	s := New(Config{Workers: 2, Window: 100 * time.Millisecond, MaxBatch: 16}, r.run)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Submit(context.Background(), "k", i); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	sizes := r.batchSizes()
	if len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batches %v, want one batch of 3", sizes)
	}
	if mb := s.Stats().Keys["k"].MeanBatch(); mb != 3 {
		t.Fatalf("MeanBatch = %v, want 3", mb)
	}
}

// TestKeysDoNotCoalesce: different keys never share a batch.
func TestKeysDoNotCoalesce(t *testing.T) {
	r := &collectRunner{}
	s := New(Config{Workers: 1, Window: 50 * time.Millisecond}, r.run)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Submit(context.Background(), fmt.Sprintf("k%d", i%2), i); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	for _, b := range r.batches {
		for _, v := range b {
			if v%2 != b[0]%2 {
				t.Fatalf("batch %v mixes keys", b)
			}
		}
	}
	if len(s.Stats().Keys) != 2 {
		t.Fatalf("expected 2 keys in stats, got %d", len(s.Stats().Keys))
	}
}

// TestOverloadFastFail: a full queue rejects immediately with ErrOverloaded.
func TestOverloadFastFail(t *testing.T) {
	r := &collectRunner{block: make(chan struct{}), started: make(chan struct{}, 16)}
	s := New(Config{Workers: 1, MaxQueue: 2, Window: 0, MaxBatch: 1}, r.run)
	errs := make(chan error, 1)
	go func() { errs <- s.Submit(context.Background(), "k", 0) }()
	<-r.started // worker now blocked inside the runner
	// Fill the queue (2 slots), then overflow it. Probe only once Stats shows
	// both fillers admitted, so the probe cannot be admitted itself (and then
	// block forever behind the stalled worker).
	fills := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) { fills <- s.Submit(context.Background(), "k", i+1) }(i)
	}
	waitUntil(t, func() bool { return s.Stats().Total.Submitted >= 3 })
	err := s.Submit(context.Background(), "k", 99)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit on full queue: %v, want ErrOverloaded", err)
	}
	if s.Stats().Total.Rejected == 0 {
		t.Fatal("Rejected counter not bumped")
	}
	close(r.block)
	if err := <-errs; err != nil {
		t.Fatalf("blocked submit: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-fills; err != nil {
			t.Fatalf("filler submit: %v", err)
		}
	}
	s.Close()
}

// waitUntil polls cond for up to 5s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueuedDeadlineExpiry: a request whose deadline passes while it waits
// behind a busy worker is dropped with ErrDeadlineExceeded, not executed.
func TestQueuedDeadlineExpiry(t *testing.T) {
	r := &collectRunner{block: make(chan struct{}), started: make(chan struct{}, 16)}
	s := New(Config{Workers: 1, Window: 0, MaxBatch: 1}, r.run)
	first := make(chan error, 1)
	go func() { first <- s.Submit(context.Background(), "k", 0) }()
	<-r.started // worker busy
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := s.Submit(ctx, "k", 1)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired submit: %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submit should also match context.DeadlineExceeded: %v", err)
	}
	close(r.block)
	if err := <-first; err != nil {
		t.Fatalf("first submit: %v", err)
	}
	s.Close()
	for _, b := range r.batches {
		for _, v := range b {
			if v == 1 {
				t.Fatal("expired payload was executed")
			}
		}
	}
	if s.Stats().Total.DeadlineExceeded == 0 {
		t.Fatal("DeadlineExceeded counter not bumped")
	}
}

// TestMidExecutionCancel: cancelling one submitter while its batch runs
// returns early to that submitter and leaves its batch-mates untouched.
func TestMidExecutionCancel(t *testing.T) {
	r := &collectRunner{block: make(chan struct{}), started: make(chan struct{}, 16)}
	s := New(Config{Workers: 1, Window: 50 * time.Millisecond, MaxBatch: 8}, r.run)
	ctx, cancel := context.WithCancel(context.Background())
	mates := make(chan error, 2)
	cancelled := make(chan error, 1)
	go func() { cancelled <- s.Submit(ctx, "k", 0) }()
	for i := 1; i <= 2; i++ {
		go func(i int) { mates <- s.Submit(context.Background(), "k", i) }(i)
	}
	<-r.started // the batch (all three fused) is now inside the runner
	cancel()
	err := <-cancelled
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v, want context.Canceled", err)
	}
	close(r.block)
	for i := 0; i < 2; i++ {
		if err := <-mates; err != nil {
			t.Fatalf("batch-mate: %v", err)
		}
	}
	s.Close()
	if got := s.Stats().Total.Cancelled; got == 0 {
		t.Fatal("Cancelled counter not bumped")
	}
}

// TestPreExecutionCancel: a request abandoned before a worker claims it is
// skipped entirely.
func TestPreExecutionCancel(t *testing.T) {
	r := &collectRunner{}
	s := New(Config{Workers: 1, Window: 200 * time.Millisecond, MaxBatch: 8}, r.run)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Submit(ctx, "k", 7) }()
	time.Sleep(10 * time.Millisecond) // let it enqueue inside the window
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned submit: %v, want context.Canceled", err)
	}
	if err := s.Submit(context.Background(), "k", 8); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Close()
	for _, b := range r.batches {
		for _, v := range b {
			if v == 7 {
				t.Fatal("abandoned payload was executed")
			}
		}
	}
}

// TestRunnerErrorPropagates: every member of a failed batch sees the error.
func TestRunnerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	r := &collectRunner{err: boom}
	s := New(Config{Workers: 1, Window: 20 * time.Millisecond}, r.run)
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Submit(context.Background(), "k", i); errors.Is(err, boom) {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	s.Close()
	if failures.Load() != 3 {
		t.Fatalf("%d submits saw the runner error, want 3", failures.Load())
	}
	if s.Stats().Total.Failed != 3 {
		t.Fatalf("Failed = %d, want 3", s.Stats().Total.Failed)
	}
}

// TestCloseDrains: queued work executes during Close; submits after Close
// fail with ErrClosed.
func TestCloseDrains(t *testing.T) {
	r := &collectRunner{}
	s := New(Config{Workers: 1, Window: time.Hour, MaxBatch: 64}, r.run)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Submit(context.Background(), "k", i); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let them enqueue inside the hour window
	s.Close()
	wg.Wait()
	if got := s.Stats().Total.Completed; got != 5 {
		t.Fatalf("Completed = %d, want 5", got)
	}
	if err := s.Submit(context.Background(), "k", 9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestStatsText: the text export mentions keys and headline counters.
func TestStatsText(t *testing.T) {
	r := &collectRunner{}
	s := New(Config{Workers: 1}, r.run)
	if err := s.Submit(context.Background(), "64x64x64/fwd", 1); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Close()
	var b strings.Builder
	s.Stats().WriteText(&b)
	out := b.String()
	for _, want := range []string{"64x64x64/fwd", "submitted 1", "completed 1", "mean-batch 1.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats text missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramQuantile sanity-checks the interpolation, and the
// constructor's observations and default (latency) buckets.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8}, 0.5, 1.5, 1.5, 3, 3, 3, 6, 20)
	if h.Count != 8 || !slices.Equal(h.Counts, []uint64{1, 2, 3, 1, 1}) {
		t.Fatalf("counts %v (%d), want [1 2 3 1 1] (8)", h.Counts, h.Count)
	}
	if m := h.Mean(); m < 4.8 || m > 4.9 {
		t.Fatalf("Mean = %v", m)
	}
	if q := h.Quantile(0.5); q < 2 || q > 4 {
		t.Fatalf("p50 = %v, want within (2,4]", q)
	}
	if q := h.Quantile(1.0); q != 8 {
		t.Fatalf("p100 = %v, want clamp to last bound 8", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
	// 3 ms sits in the latency bucket (2.048 ms, 4.096 ms].
	lat := NewHistogram(nil, 3e-3, 3e-3)
	if !slices.Equal(lat.Bounds, latencyBounds()) {
		t.Fatalf("nil bounds gave %v, want the latency buckets", lat.Bounds)
	}
	if q := lat.Quantile(0.5); q <= 2.048e-3 || q > 4.096e-3 {
		t.Fatalf("latency p50 = %v, want within (2.048ms, 4.096ms]", q)
	}
}
