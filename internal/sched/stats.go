package sched

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Histogram is a fixed-bucket histogram. Bounds are upper bucket edges; an
// observation lands in the first bucket whose bound is >= the value, or in the
// implicit overflow bucket past the last bound. The zero value is unusable —
// construct with NewHistogram (snapshots returned by Stats are value copies
// safe to read without locks).
type Histogram struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is overflow
	Count  uint64
	Sum    float64
}

// NewHistogram returns a histogram over the given upper bucket edges holding
// the observations obs. Nil bounds select the latency buckets Stats reports
// (seconds, 1 µs to 67 s in powers of two), so a client timing its own
// requests gets quantiles on the scheduler's scale.
func NewHistogram(bounds []float64, obs ...float64) Histogram {
	if bounds == nil {
		bounds = latencyBounds()
	}
	h := Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
	for _, v := range obs {
		h.observe(v)
	}
	return h
}

func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v)
	h.Counts[i]++
	h.Count++
	h.Sum += v
}

// Mean returns the mean observation (0 when empty).
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// within the bucket holding it. Observations in the overflow bucket report the
// last bound (a lower bound on the truth).
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		hi := h.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// clone returns an independent copy (snapshots must not alias live counters).
func (h Histogram) clone() Histogram {
	c := h
	c.Counts = append([]uint64(nil), h.Counts...)
	return c
}

// latencyBounds covers 1µs .. ~67s in powers of two — the full range from an
// in-memory batch hit to a badly overloaded queue.
func latencyBounds() []float64 {
	b := make([]float64, 27)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// batchBounds buckets batch sizes: 1, 2, 4, ... 128.
func batchBounds() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64, 128} }

// KeyStats are the per-shape counters of one scheduler key. All counts are
// monotonic; InFlight is a gauge.
type KeyStats struct {
	// Submitted counts admitted requests (excludes rejections).
	Submitted uint64
	// Completed and Failed count requests whose batch executed (Failed when
	// the runner returned an error).
	Completed uint64
	Failed    uint64
	// Rejected counts admission-control fast-fails (ErrOverloaded).
	Rejected uint64
	// DeadlineExceeded counts requests dropped because their context deadline
	// expired before execution started.
	DeadlineExceeded uint64
	// Cancelled counts requests abandoned by their submitter (context
	// cancelled) before execution started, plus submitters that stopped
	// waiting mid-execution.
	Cancelled uint64
	// Batches counts runner invocations; BatchedItems the requests they
	// carried, so BatchedItems/Batches is the mean coalesced batch size.
	Batches      uint64
	BatchedItems uint64
	// InFlight is the number of requests currently inside the runner.
	InFlight int

	// BatchSizes distributes runner batch sizes; Latency distributes
	// submit-to-completion wall seconds of executed requests.
	BatchSizes Histogram
	Latency    Histogram
}

// MeanBatch returns the mean coalesced batch size (0 when no batch ran).
func (k KeyStats) MeanBatch() float64 {
	if k.Batches == 0 {
		return 0
	}
	return float64(k.BatchedItems) / float64(k.Batches)
}

func (k *KeyStats) add(o KeyStats) {
	k.Submitted += o.Submitted
	k.Completed += o.Completed
	k.Failed += o.Failed
	k.Rejected += o.Rejected
	k.DeadlineExceeded += o.DeadlineExceeded
	k.Cancelled += o.Cancelled
	k.Batches += o.Batches
	k.BatchedItems += o.BatchedItems
	k.InFlight += o.InFlight
	for i, c := range o.BatchSizes.Counts {
		k.BatchSizes.Counts[i] += c
	}
	k.BatchSizes.Count += o.BatchSizes.Count
	k.BatchSizes.Sum += o.BatchSizes.Sum
	for i, c := range o.Latency.Counts {
		k.Latency.Counts[i] += c
	}
	k.Latency.Count += o.Latency.Count
	k.Latency.Sum += o.Latency.Sum
}

// Stats is a point-in-time snapshot of a Scheduler: per-key counters plus
// their aggregate.
type Stats struct {
	Keys  map[string]KeyStats
	Total KeyStats
}

// WriteText renders the snapshot as a human-readable report (the format the
// fftserve CLI and Server.WriteStats print). Keys are sorted for stable
// output.
func (s Stats) WriteText(w io.Writer) {
	t := s.Total
	fmt.Fprintf(w, "sched: %d keys  submitted %d  completed %d  failed %d  rejected %d  deadline-exceeded %d  cancelled %d  in-flight %d\n",
		len(s.Keys), t.Submitted, t.Completed, t.Failed, t.Rejected, t.DeadlineExceeded, t.Cancelled, t.InFlight)
	names := make([]string, 0, len(s.Keys))
	for k := range s.Keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		k := s.Keys[name]
		fmt.Fprintf(w, "  %s:\n", name)
		fmt.Fprintf(w, "    submitted %d  completed %d  failed %d  rejected %d  deadline-exceeded %d  cancelled %d\n",
			k.Submitted, k.Completed, k.Failed, k.Rejected, k.DeadlineExceeded, k.Cancelled)
		fmt.Fprintf(w, "    batches %d  mean-batch %.2f  latency p50 %s  p99 %s  mean %s\n",
			k.Batches, k.MeanBatch(),
			fmtDur(k.Latency.Quantile(0.50)), fmtDur(k.Latency.Quantile(0.99)), fmtDur(k.Latency.Mean()))
	}
}

func fmtDur(sec float64) string {
	return time.Duration(sec * float64(time.Second)).Round(time.Microsecond).String()
}

// statsCore accumulates live counters under its own lock so the scheduler's
// queue lock is never held while recording.
type statsCore struct {
	mu   sync.Mutex
	keys map[string]*KeyStats
}

func newStatsCore() *statsCore { return &statsCore{keys: map[string]*KeyStats{}} }

func (s *statsCore) key(name string) *KeyStats {
	k := s.keys[name]
	if k == nil {
		k = &KeyStats{BatchSizes: NewHistogram(batchBounds()), Latency: NewHistogram(nil)}
		s.keys[name] = k
	}
	return k
}

func (s *statsCore) bump(name string, f func(*KeyStats)) {
	s.mu.Lock()
	f(s.key(name))
	s.mu.Unlock()
}

func (s *statsCore) snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Keys:  make(map[string]KeyStats, len(s.keys)),
		Total: KeyStats{BatchSizes: NewHistogram(batchBounds()), Latency: NewHistogram(nil)},
	}
	for name, k := range s.keys {
		c := *k
		c.BatchSizes = k.BatchSizes.clone()
		c.Latency = k.Latency.clone()
		out.Keys[name] = c
		out.Total.add(c)
	}
	return out
}
