package bench

import (
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"shrink", "decomp", "modelcheck", "warpx", "frontier", "async", "r2c",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", RunOptions{}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestAllSorted(t *testing.T) {
	es := All()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID > es[i].ID {
			t.Errorf("All() not sorted: %s after %s", es[i].ID, es[i-1].ID)
		}
	}
}

// TestRunTurnsRankPanicIntoError: a bad configuration panics inside a rank,
// mpisim re-raises it from World.Run, and Run returns it as an error instead
// of crashing the caller.
func TestRunTurnsRankPanicIntoError(t *testing.T) {
	defer func(saved []Experiment) { registry = saved }(registry)
	register(Experiment{ID: "bad-config", Run: func(RunOptions) (Result, error) {
		w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{})
		_, err := forwardOnce(w, core.Config{Global: [3]int{0, 0, 0}}, phantom, nil)
		return Result{}, err
	}})
	_, err := Run("bad-config", RunOptions{})
	if err == nil || !strings.HasPrefix(err.Error(), "bench: bad-config: run failed: ") {
		t.Fatalf("Run = %v, want a run-failed error", err)
	}
}

// quickScalars runs one experiment in quick mode and returns its scalars.
func quickScalars(t *testing.T, id string) map[string]float64 {
	t.Helper()
	res, err := Run(id, RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Scalars
}

// TestHeadlineScalars: the four figures the paper states a shape for return
// that shape as a named number.
func TestHeadlineScalars(t *testing.T) {
	got := map[string]float64{}
	for id, name := range map[string]string{
		"fig11": "gpu_aware_penalty",
		"fig5":  "crossover_nodes",
		"fig13": "batch_speedup",
		"fig12": "kspace_reduction",
	} {
		v, ok := quickScalars(t, id)[name]
		if !ok {
			t.Errorf("%s: no scalar %q", id, name)
		}
		got[name] = v
	}
	// The quick sweep ends at 8 nodes, below the paper's 64-node crossover:
	// slabs win throughout, so there is no crossover.
	if got["crossover_nodes"] != 0 {
		t.Errorf("crossover_nodes = %v in the 1–8 node sweep, want 0", got["crossover_nodes"])
	}
	if got["gpu_aware_penalty"] <= 0 {
		t.Errorf("gpu_aware_penalty = %.2f, want host-staged comm slower than GPU-aware", got["gpu_aware_penalty"])
	}
}

// TestFig12ShowsKspaceReduction pins the headline application result: the
// tuned heFFTe settings must cut KSPACE versus the fftMPI-like baseline.
func TestFig12ShowsKspaceReduction(t *testing.T) {
	if got := quickScalars(t, "fig12")["kspace_reduction"]; got <= 0 {
		t.Errorf("kspace_reduction = %.2f, want > 0 (tuned settings slower than baseline)", got)
	}
}

// TestFig13ShowsBatchSpeedup pins the batching result: ≥ 1.5× per-transform
// speedup at 64³ on every system even in quick mode.
func TestFig13ShowsBatchSpeedup(t *testing.T) {
	if got := quickScalars(t, "fig13")["batch_speedup"]; got < 1.5 {
		t.Errorf("batch_speedup = %.2f, want ≥ 1.5", got)
	}
}

func TestTableIIIConfigMatchesEntry(t *testing.T) {
	cfg := tableIIIConfig(24, [3]int{64, 64, 64}, core.Options{})
	if cfg.Opts.PQ != [2]int{4, 6} {
		t.Errorf("PQ = %v, want (4,6) from Table III", cfg.Opts.PQ)
	}
	if len(cfg.InBoxes) != 24 || len(cfg.OutBoxes) != 24 {
		t.Error("box lists must have one entry per rank")
	}
}

func TestNodeSweep(t *testing.T) {
	full := nodeSweep(RunOptions{}, 128)
	if full[0] != 1 || full[len(full)-1] != 128 {
		t.Errorf("full sweep = %v", full)
	}
	quick := nodeSweep(RunOptions{Quick: true}, 128)
	if quick[len(quick)-1] > 8 {
		t.Errorf("quick sweep reaches %d nodes", quick[len(quick)-1])
	}
}

func TestGridFor(t *testing.T) {
	if g := gridFor(RunOptions{}); g != [3]int{512, 512, 512} {
		t.Errorf("full grid = %v", g)
	}
	if g := gridFor(RunOptions{Quick: true}); g[0] >= 512 {
		t.Errorf("quick grid = %v", g)
	}
}

func TestSumHelper(t *testing.T) {
	if sum([]float64{1, 2, 3.5}) != 6.5 {
		t.Error("sum broken")
	}
	if sum(nil) != 0 {
		t.Error("sum(nil) != 0")
	}
}

// TestQuickSmoke runs every experiment, elastic included, in quick mode
// through Run and checks it returns sections, each row as wide as its header,
// rows whose time columns add up, and finite scalars — the end-to-end test of
// the harness. Every event name in the package's lists must be recorded by
// at least one of the runs.
func TestQuickSmoke(t *testing.T) {
	defer func(saved func() *trace.Tracer) { newTracer = saved }(newTracer)
	var tracers []*trace.Tracer
	newTracer = func() *trace.Tracer {
		tr := trace.New()
		tracers = append(tracers, tr)
		return tr
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			res, err := Run(e.ID, RunOptions{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Sections) == 0 {
				t.Error("no sections")
			}
			for i, s := range res.Sections {
				for _, row := range s.Rows {
					if len(s.Header) > 0 && len(row) != len(s.Header) {
						t.Errorf("section %d: row has %d cells, header %d", i, len(row), len(s.Header))
					}
				}
				checkTimeColumns(t, s)
			}
			for name, v := range res.Scalars {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("scalar %s = %v", name, v)
				}
			}
		})
	}
	recorded := map[string]bool{}
	for _, tr := range tracers {
		for _, name := range tr.Names() {
			recorded[name] = true
		}
	}
	for _, list := range [][]string{fig3Events, lammpsShortRange} {
		for _, name := range list {
			if !recorded[name] {
				t.Errorf("event %q is listed but no quick experiment records it", name)
			}
		}
	}
}

// checkTimeColumns holds a section to the one attribution rule: a comm
// column never exceeds its total column, and in a breakdown (a section with
// wait and TOTAL rows) each column's rows add up to its TOTAL, with wait ≥ 0.
func checkTimeColumns(t *testing.T, s Section) {
	t.Helper()
	for i, h := range s.Header {
		j := slices.Index(s.Header, strings.Replace(h, "comm", "total", 1))
		if !strings.HasPrefix(h, "comm") || j < 0 {
			continue
		}
		for _, row := range s.Rows {
			if row[i].V > row[j].V {
				t.Errorf("%s %s above %s %s in row %q", h, row[i].Text, s.Header[j], row[j].Text, row[0].Text)
			}
		}
	}
	n := len(s.Rows)
	if n < 2 || s.Rows[n-1][0].Text != "TOTAL" || s.Rows[n-2][0].Text != "wait" {
		return
	}
	for c := 1; c < len(s.Header); c++ {
		sum := 0.0
		for _, row := range s.Rows[:n-1] {
			sum += row[c].V
		}
		if total := s.Rows[n-1][c].V; math.Abs(sum-total) > 1e-9*total {
			t.Errorf("%s: rows add up to %g s, TOTAL %g s", s.Header[c], sum, total)
		}
		if wait := s.Rows[n-2][c]; wait.V < 0 {
			t.Errorf("%s: wait %s is negative", s.Header[c], wait.Text)
		}
	}
}

// TestBreakdownTotalIsTimePerFFT: the TOTAL of Figs. 6/7 is the variant's
// time per transform, not a sum over kernels.
func TestBreakdownTotalIsTimePerFFT(t *testing.T) {
	opts := RunOptions{Quick: true}
	for id, variants := range map[string][]core.Options{"fig6": fig6Variants, "fig7": fig7Variants} {
		res, err := Run(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Sections[0].Rows
		total := rows[len(rows)-1]
		for i, v := range variants {
			if want := breakdownRun(opts, v).TotalPerFFT; total[i+1].V != want {
				t.Errorf("%s %s: TOTAL %g, time per transform %g", id, res.Sections[0].Header[i+1], total[i+1].V, want)
			}
		}
	}
}

// TestCommDominatesFig7 is DESIGN §5's target at the paper's scale (512³ on
// 24 GPUs): communication is more than 90 % of the runtime for both P2P
// variants.
func TestCommDominatesFig7(t *testing.T) {
	for _, v := range fig7Variants {
		m := breakdownRun(RunOptions{}, v)
		if frac := m.CommPerFFT / m.TotalPerFFT; frac <= 0.9 {
			t.Errorf("%v: comm %.1f%% of the runtime, want > 90%%", v.Backend, 100*frac)
		}
	}
}

// TestModelCheckShape checks modelcheck's expected shape on the quick sweep:
// the simulated pencil exchanges never take longer than eqs. 2–3 predict, and
// the ratio is lowest on one node.
func TestModelCheckShape(t *testing.T) {
	res, err := Run("modelcheck", RunOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Sections[0].Rows
	ratio := len(rows[0]) - 1
	for _, row := range rows {
		if row[ratio].V > 1 || row[ratio].V < rows[0][ratio].V {
			t.Errorf("%s nodes: ratio %s, want ≤ 1 and ≥ the one-node %s", row[0].Text, row[ratio].Text, rows[0][ratio].Text)
		}
	}
}

// TestExperimentsDeterministic runs every experiment twice in quick mode and
// wants identical Results — the end-to-end statement of the simulator's
// virtual-time determinism. elastic is skipped: its resume column depends on
// goroutine timing after a kill (ROADMAP item 3).
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range All() {
		if e.ID == "elastic" {
			continue
		}
		a, err := Run(e.ID, RunOptions{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(e.ID, RunOptions{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Result differs between runs", e.ID)
		}
	}
}

// TestQuickGolden renders every quick Result and compares it with its
// "== id:" block of testdata/quick.txt, the text fftbench has always printed
// (elastic aside, see TestExperimentsDeterministic).
func TestQuickGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	var id string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
		}
		golden[id] += line
	}
	for _, e := range All() {
		if e.ID == "elastic" {
			continue
		}
		res, err := Run(e.ID, RunOptions{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		if err := Render(&got, e, res); err != nil {
			t.Fatal(err)
		}
		if want := golden[e.ID]; got.String() != want {
			t.Errorf("%s: rendered output differs from testdata/quick.txt; if the change is intended, regenerate with\n"+
				"\tgo run ./cmd/fftbench -all -quick > internal/bench/testdata/quick.txt\n--- got ---\n%s--- want ---\n%s",
				e.ID, got.String(), want)
		}
	}
}
