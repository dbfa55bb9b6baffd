package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.9, 8.2}, {1, 9}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	if xs[0] != 9 {
		t.Error("quantile reordered its input")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1
	}
	pct, v := tail(xs)
	// Ten samples (191…200) lie beyond the 95th percentile's value, 190.
	if pct != 95 || v != 190 {
		t.Errorf("tail of 200 = p%v at %v, want p95 at 190", pct, v)
	}
	if pct, v := tail(xs[:5]); pct != 50 || v != 198 {
		t.Errorf("tail of 5 = p%v at %v, want the median", pct, v)
	}
}

// TestIQRShare pins the spread to Python's
// statistics.quantiles(values, n=4): for 1…10 the quartiles are 2.75 and
// 8.25 and the median 5.5.
func TestIQRShare(t *testing.T) {
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one run = %v, want 0", got)
	}
}

// TestAtRefSpeed: a host that halves its speed in the middle of a run doubles
// the durations and the probe alike, and the reference-speed durations stay
// put; one disturbed probe moves nothing.
func TestAtRefSpeed(t *testing.T) {
	const p = refNominalSec
	got := atRefSpeed([]float64{1, 1, 1, 2, 2, 2}, []float64{p, p, p, 2 * p, 2 * p, 2 * p})
	for i, g := range got {
		want := 1.0
		if i == 3 { // the window straddles the change: median of p, p, 2p, 2p
			want = 2 / 1.5
		}
		if math.Abs(g-want) > 1e-12 {
			t.Errorf("atRefSpeed[%d] = %v, want %v", i, g, want)
		}
	}
	got = atRefSpeed([]float64{1, 1, 1, 1, 1}, []float64{p, p, 10 * p, p, p})
	for i, g := range got {
		if math.Abs(g-1) > 1e-12 {
			t.Errorf("one disturbed probe moved atRefSpeed[%d] to %v", i, g)
		}
	}
	if f := speedFactor(2 * p); f != 0.5 {
		t.Errorf("speedFactor at half speed = %v", f)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0}, // overlaps a by 10 ms
		{Name: "leaf", Start: ms(12), End: ms(20), Parent: 1},
		{Name: "late", Start: ms(90), End: ms(120), Parent: 0}, // sticks out of root by 20 ms
	}
	want := []time.Duration{ms(100 - 50 - 10), ms(30 - 8), ms(30), ms(8), ms(30)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := selfByName(spans)["root"]; got != ms(40) {
		t.Errorf("selfByName[root] = %v, want 40ms", got)
	}
}

func TestRecorderNilAndTrace(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", -1, -1, 0)) // must not panic
	if none.snapshot() != nil {
		t.Error("nil recorder produced spans")
	}
	rec := newRecorder("w")
	root := rec.begin("root", -1, -1, 0)
	rec.end(rec.begin("child", root, 3, 1))
	rec.begin("never closed", root, -1, 0)
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Iteration != 3 || spans[1].Workload != "w" {
		t.Fatalf("snapshot = %+v", spans)
	}
	path := t.TempDir() + "/trace.json"
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args map[string]any
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "child" || doc.TraceEvents[1].Ph != "X" {
		t.Errorf("trace events = %+v", doc.TraceEvents)
	}
}

// TestManifestGolden: BENCHMARK.json lists exactly the workloads and metrics
// this program emits, with their units and bounds.
func TestManifestGolden(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifestFile
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date; regenerate with `go run ./benchmark -manifest`\n got %+v\nwant %+v", got, want)
	}
}

// TestManifestLimits keeps the schema inside what the driver accepts.
func TestManifestLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	m := buildManifest()
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q bound %v", e.Name, e.Unit, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, e := range m.PerLayer {
		check(e.Name)
		if !unit.MatchString(e.Unit) || e.Bound != nil || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q better %q bound %v", e.Name, e.Unit, e.Better, e.Bound)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
}

// quickRun runs one workload in quick mode and checks that it emits exactly
// the metric names of its mode.
func quickRun(t *testing.T, w workload, seed int64, traced bool) *runResult {
	t.Helper()
	res, err := runWorkload(w, options{workload: w.name, seed: seed, seconds: 0.2, trace: traced, quick: true})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if !res.correct || res.failed != 0 || res.attempted < 1 {
		t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.correct, res.failed, res.attempted)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.metrics) != len(defs) {
		t.Errorf("%s traced=%v: %d metrics emitted, schema has %d", w.name, traced, len(res.metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
		case math.IsNaN(v.v) || math.IsInf(v.v, 0):
			t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, d.Name, v.v)
		case !traced && v.v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.v)
		}
	}
	return res
}

func TestEndToEndNames(t *testing.T) {
	for _, w := range workloads {
		quickRun(t, w, 1, false)
	}
}

// TestDeterminism: the program never sees the seed, and virtual time and the
// work counts do not depend on the host, so every exact row repeats bit for
// bit — same seed or not.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		first := quickRun(t, w, 1, true)
		for _, seed := range []int64{1, 2} {
			again := quickRun(t, w, seed, true)
			for _, d := range perLayer {
				if !d.Exact {
					continue
				}
				if a, b := first.metrics[d.Name].v, again.metrics[d.Name].v; a != b {
					t.Errorf("%s: %s = %v with seed 1, %v with seed %d", w.name, d.Name, a, b, seed)
				}
			}
		}
		if w.world != nil {
			if v := first.metrics["virtual_us_per_transform"].v; v <= 0 {
				t.Errorf("%s: virtual_us_per_transform = %v", w.name, v)
			}
			if v := first.metrics["mpisim.messages"].v; v <= 0 {
				t.Errorf("%s: mpisim.messages = %v", w.name, v)
			}
		}
	}
}

// TestPhantomHasNoPayloadWork: the scale workload must show exactly zero
// kernel and pack work, the dense one must not.
func TestPhantomHasNoPayloadWork(t *testing.T) {
	scale, _ := findWorkload("scale512_r768_phantom")
	dense, _ := findWorkload("dense128_r64")
	s, d := quickRun(t, scale, 1, true), quickRun(t, dense, 1, true)
	for _, name := range []string{"fft.lines", "fft.busy_ms", "tensor.pack_bytes", "tensor.pack_busy_ms", "tensor.unpack_busy_ms"} {
		if v := s.metrics[name].v; v != 0 {
			t.Errorf("scale512_r768_phantom: %s = %v, want exactly 0", name, v)
		}
		if v := d.metrics[name].v; v <= 0 {
			t.Errorf("dense128_r64: %s = %v, want > 0", name, v)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	exact := metricDef{Exact: true}
	steady := []float64{100, 101, 99, 100}
	noisy := []float64{60, 100, 140, 180}
	cases := []struct {
		name      string
		d         metricDef
		base, cur []float64
		want      string
	}{
		{"within bound", lower, steady, []float64{105}, verdictUnchanged},
		{"worse, lower is better", lower, steady, []float64{115}, verdictRegressed},
		{"better, lower is better", lower, steady, []float64{80}, verdictImproved},
		{"worse, higher is better", higher, steady, []float64{85}, verdictRegressed},
		{"better, higher is better", higher, steady, []float64{120}, verdictImproved},
		{"spread beyond the bound", lower, noisy, []float64{121}, verdictUnresolved},
		{"exact match", exact, []float64{3.25}, []float64{3.25}, verdictExactSame},
		{"exact differs in the last bit", exact, []float64{3.25}, []float64{math.Nextafter(3.25, 4)}, verdictExactDiffer},
		{"per-layer host row", metricDef{Better: "lower"}, steady, []float64{200}, verdictInfo},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, transformMs, virtualUs float64) string {
		r := newRecord(options{seed: 1})
		for run := 0; run < 3; run++ {
			r.add("dense128_r64", &runResult{correct: true, attempted: 10, metrics: map[string]value{
				"transform_host_ms": {transformMs + float64(run)/10, 5},
			}}, endToEnd, "end_to_end")
			r.add("dense128_r64", &runResult{correct: true, attempted: 10, metrics: map[string]value{
				"virtual_us_per_transform": {virtualUs, 5},
			}}, perLayer, "per_layer")
		}
		path := dir + "/" + name
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 50, 685.4)
	var sb strings.Builder
	if err := compareFiles(&sb, base, write("same.json", 51, 685.4)); err != nil {
		t.Errorf("A/A compare failed: %v\n%s", err, sb.String())
	}
	if out := sb.String(); !strings.Contains(out, verdictUnchanged) || !strings.Contains(out, verdictExactSame) {
		t.Errorf("A/A compare output:\n%s", out)
	}
	sb.Reset()
	if err := compareFiles(&sb, base, write("slow.json", 70, 685.5)); err == nil {
		t.Errorf("a 40 %% slowdown and a moved virtual clock passed:\n%s", sb.String())
	}
	if out := sb.String(); !strings.Contains(out, verdictRegressed) || !strings.Contains(out, verdictExactDiffer) {
		t.Errorf("regression compare output:\n%s", out)
	}
}
