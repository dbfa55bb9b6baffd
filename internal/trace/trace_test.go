package trace

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Name: "x"}) // must not panic
	tr.Prune(1)
	if tr.Events() != nil || tr.TotalByName(0) != nil || tr.Breakdown(0, 1, 1) != nil || tr.PerCall("x") != nil || tr.Names() != nil {
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

// TestTotalByNamePerRank: each instant of one rank's timeline counts once,
// toward the outermost event covering it (the longer one when two start
// together); other ranks' events do not count.
func TestTotalByNamePerRank(t *testing.T) {
	tr := New()
	tr.Record(Event{Rank: 0, Name: "fft", Start: 0, End: 1})
	tr.Record(Event{Rank: 0, Name: "checksum", Start: 3.5, End: 4})
	tr.Record(Event{Rank: 0, Name: "comm", Start: 3, End: 5})
	tr.Record(Event{Rank: 0, Name: "stall", Start: 6, End: 6.25})
	tr.Record(Event{Rank: 0, Name: "send", Start: 6, End: 6.5})
	tr.Record(Event{Rank: 0, Name: "fft", Start: 7, End: 7.5})
	tr.Record(Event{Rank: 1, Name: "fft", Start: 0, End: 4})
	want := map[string]float64{"fft": 1.5, "comm": 2, "send": 0.5}
	if got := tr.TotalByName(0); !reflect.DeepEqual(got, want) {
		t.Errorf("rank 0 totals = %v, want %v", got, want)
	}
	if got := tr.TotalByName(1); !reflect.DeepEqual(got, map[string]float64{"fft": 4}) {
		t.Errorf("rank 1 totals = %v", got)
	}
}

// TestBreakdownAddsUp: Breakdown divides rank 1's totals by the transform
// count, gives a zero row to a name only another rank recorded, leaves the
// closing MPI_Barrier out, and fills the rest of the span with wait: the rows
// plus wait are the elapsed time per transform.
func TestBreakdownAddsUp(t *testing.T) {
	tr := New()
	tr.Record(Event{Rank: 1, Name: "fft", Start: 0, End: 1})
	tr.Record(Event{Rank: 1, Name: "MPI_Alltoallv", Start: 1, End: 2.5})
	tr.Record(Event{Rank: 1, Name: "pack", Start: 2.5, End: 3})
	tr.Record(Event{Rank: 1, Name: "MPI_Barrier", Start: 3.5, End: 4})
	tr.Record(Event{Rank: 0, Name: "unpack", Start: 0, End: 1})
	got := tr.Breakdown(1, 2, 2)
	want := map[string]float64{"fft": 0.5, "MPI_Alltoallv": 0.75, "pack": 0.25, "unpack": 0, "wait": 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Breakdown = %v, want %v", got, want)
	}
	if _, ok := got["MPI_Barrier"]; ok {
		t.Error("the closing MPI_Barrier has a row")
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 2 {
		t.Errorf("rows plus wait = %g, want the elapsed 2", sum)
	}
	// An elapsed time shorter than the rows leaves no negative wait.
	if w := tr.Breakdown(1, 2, 1)["wait"]; w != 0 {
		t.Errorf("wait = %g for an elapsed time under the rows, want 0", w)
	}
}

// TestBreakdownIsBitReproducible: wait subtracts the rows in sorted name
// order, so two calls over many nested, overlapping events — recorded by
// ranks in any interleaving — give the same bits.
func TestBreakdownIsBitReproducible(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	names := []string{"MPI_Alltoallv", "MPI_Barrier", "cufft_1d", "pack", "unpack", "convert", "MPI_Waitany"}
	for i := 0; i < 2000; i++ {
		start := rng.Float64() * 10
		tr.Record(Event{Rank: i % 3, Name: names[rng.Intn(len(names))], Start: start, End: start + rng.Float64()/3})
	}
	a, b := tr.Breakdown(2, 7, 1.5), tr.Breakdown(2, 7, 1.5)
	// A row per name but MPI_Barrier, and wait.
	if len(a) != len(names) || len(b) != len(names) {
		t.Fatalf("rows %v and %v, want %d each", a, b, len(names))
	}
	for k, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[k]) {
			t.Errorf("%s: %x then %x", k, math.Float64bits(v), math.Float64bits(b[k]))
		}
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

// TestConcurrentRecord: ranks record concurrently — the shards grow while
// others record — and every event lands in its rank's shard, in the order the
// rank recorded it.
func TestConcurrentRecord(t *testing.T) {
	tr := New()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(r int) {
			for i := 0; i < 100; i++ {
				tr.Record(Event{Rank: 7 * r, Name: "k", Start: 0, End: float64(i)})
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	es := tr.Events()
	if len(es) != 800 {
		t.Fatalf("recorded %d events, want 800", len(es))
	}
	for i, e := range es {
		if e.Rank != 7*(i/100) || e.End != float64(i%100) {
			t.Fatalf("event %d is %+v: not rank %d's event %d", i, e, 7*(i/100), i%100)
		}
	}
	if got := tr.TotalByName(14); got["k"] != 99 {
		t.Errorf("rank 14 totals = %v, want k: 99", got)
	}
}

// TestEventsKeepRecordOrder: events equal in (Name, Rank, Start) come out in
// the order their rank recorded them, whatever order the ranks recorded in.
func TestEventsKeepRecordOrder(t *testing.T) {
	tr := New()
	tr.Record(Event{Rank: 3, Name: "a", Start: 1, End: 3})
	tr.Record(Event{Rank: 0, Name: "a", Start: 1, End: 5})
	tr.Record(Event{Rank: 3, Name: "a", Start: 1, End: 2})
	tr.Record(Event{Rank: 0, Name: "a", Start: 1, End: 4})
	var ends []float64
	for _, e := range tr.Events() {
		ends = append(ends, e.End)
	}
	if want := []float64{5, 4, 3, 2}; !reflect.DeepEqual(ends, want) {
		t.Errorf("ends in Events order = %v, want %v", ends, want)
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
