package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Name: "x"}) // must not panic
	tr.Prune(1)
	if tr.Events() != nil || tr.TotalByName(0) != nil || tr.PerCall("x") != nil || tr.Names() != nil {
		t.Error("nil tracer accessors should return nil")
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 1.5, End: 2.25}
	if e.Duration() != 0.75 {
		t.Errorf("Duration = %g", e.Duration())
	}
}

func TestEventsSorted(t *testing.T) {
	tr := New()
	tr.Record(Event{Rank: 1, Name: "b", Start: 0})
	tr.Record(Event{Rank: 0, Name: "b", Start: 5})
	tr.Record(Event{Rank: 0, Name: "a", Start: 9})
	tr.Record(Event{Rank: 0, Name: "b", Start: 1})
	es := tr.Events()
	if len(es) != 4 {
		t.Fatalf("got %d events", len(es))
	}
	if es[0].Name != "a" {
		t.Error("events not sorted by name first")
	}
	if es[1].Rank != 0 || es[2].Rank != 0 || es[3].Rank != 1 {
		t.Error("events not sorted by rank within name")
	}
	if es[1].Start > es[2].Start {
		t.Error("events not sorted by start within rank")
	}
}

func TestTotalByNamePerRank(t *testing.T) {
	tr := New()
	tr.Record(Event{Rank: 0, Name: "fft", Start: 0, End: 1})
	tr.Record(Event{Rank: 0, Name: "fft", Start: 2, End: 2.5})
	tr.Record(Event{Rank: 1, Name: "fft", Start: 0, End: 4})
	tr.Record(Event{Rank: 0, Name: "mpi", Start: 0, End: 3})
	rank0 := tr.TotalByName(0)
	if rank0["fft"] != 1.5 || rank0["mpi"] != 3 {
		t.Errorf("rank 0 totals = %v", rank0)
	}
	// Max over ranks: rank 1 dominates fft with 4.
	agg := tr.TotalByName(-1)
	if agg["fft"] != 4 || agg["mpi"] != 3 {
		t.Errorf("aggregate totals = %v", agg)
	}
}

func TestPerCallMaxOverRanks(t *testing.T) {
	tr := New()
	// Two ranks, two calls each; call k on each rank aligns by order.
	tr.Record(Event{Rank: 0, Name: "a2a", Start: 0, End: 1})   // call 1
	tr.Record(Event{Rank: 0, Name: "a2a", Start: 5, End: 5.2}) // call 2
	tr.Record(Event{Rank: 1, Name: "a2a", Start: 0, End: 0.5}) // call 1
	tr.Record(Event{Rank: 1, Name: "a2a", Start: 5, End: 7})   // call 2
	calls := tr.PerCall("a2a")
	if len(calls) != 2 {
		t.Fatalf("got %d calls", len(calls))
	}
	if math.Abs(calls[0]-1) > 1e-12 || math.Abs(calls[1]-2) > 1e-12 {
		t.Errorf("per-call maxima = %v, want [1 2]", calls)
	}
}

func TestNamesAndReset(t *testing.T) {
	tr := New()
	tr.Record(Event{Name: "z"})
	tr.Record(Event{Name: "a"})
	names := tr.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Errorf("Names = %v", names)
	}
	tr.Prune(math.Inf(1))
	if len(tr.Events()) != 0 {
		t.Error("pruning past every event did not clear them")
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New()
	tr.Record(Event{Rank: 2, Name: "MPI_Alltoallv", Start: 0.001, End: 0.003, Bytes: 4096})
	tr.Record(Event{Rank: 0, Name: "cufft_1d", Start: 0, End: 0.0005})
	var buf strings.Builder
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d events", len(out))
	}
	// Events() sorts by name, so MPI_Alltoallv comes first.
	if out[0]["name"] != "MPI_Alltoallv" || out[0]["ph"] != "X" {
		t.Errorf("event 0 = %v", out[0])
	}
	if out[0]["dur"].(float64) != 2000 { // 2 ms → 2000 µs
		t.Errorf("dur = %v", out[0]["dur"])
	}
	if out[0]["tid"].(float64) != 2 {
		t.Errorf("tid = %v", out[0]["tid"])
	}
	if out[1]["args"] != nil {
		t.Error("zero-byte event should omit args")
	}
	// Nil tracer writes an empty array.
	var empty strings.Builder
	if err := New().WriteChrome(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty.String()) != "[]" {
		t.Errorf("empty tracer wrote %q", empty.String())
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(r int) {
			for i := 0; i < 100; i++ {
				tr.Record(Event{Rank: r, Name: "k", Start: float64(i), End: float64(i) + 1})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := len(tr.Events()); got != 800 {
		t.Errorf("recorded %d events, want 800", got)
	}
}

func TestPrune(t *testing.T) {
	tr := New()
	tr.Record(Event{Name: "warmup", Start: 0.1, End: 0.2})
	tr.Record(Event{Name: "timed", Start: 0.5, End: 0.6})
	tr.Record(Event{Name: "spans", Start: 0.4, End: 0.55})
	tr.Prune(0.5)
	names := tr.Names()
	if len(names) != 1 || names[0] != "timed" {
		t.Errorf("Prune kept %v, want [timed]", names)
	}
	var nilT *Tracer
	nilT.Prune(1) // must not panic
}
