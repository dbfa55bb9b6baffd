package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness at a layer boundary:
// around NewWorld, World.Run, collective NewPlan, field fill, every plan call
// on rank 0, every Submit, and every layer-replay call. Spans live in memory
// and are written out once, when the benchmark ends.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int           // index of the causing span, -1 for a root
	Workload   string
	Iteration  int // timed iteration (or request ordinal), -1 outside the loop
	Track      int // rank or client the span ran on: one Chrome-trace thread each
}

// recorder collects spans. A nil *recorder records nothing, so the untraced
// run pays one nil check per call site and no allocation.
type recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent, iteration, track int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent,
		Workload: r.workload, Iteration: iteration, Track: track})
	return len(r.spans) - 1
}

// end closes the span opened by begin (a no-op for the id of a nil recorder).
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"workload": s.Workload, "iteration": s.Iteration,
				"parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
