package bench

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpisim"
	"repro/internal/trace"
	"repro/internal/tuning"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"shrink", "modelcheck", "warpx", "r2c",
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
	if _, err := Run("nope"); err == nil {
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
	register(Experiment{ID: "bad-config", Run: func() (Result, error) {
		w := mpisim.NewWorld(machine.Summit(), 4, mpisim.Options{})
		_, err := forwardOnce(w, core.Config{Global: [3]int{0, 0, 0}}, phantom)
		return Result{}, err
	}})
	_, err := Run("bad-config")
	if err == nil || !strings.HasPrefix(err.Error(), "bench: bad-config: run failed: ") {
		t.Fatalf("Run = %v, want a run-failed error", err)
	}
}

// suite holds every experiment's full-size Result, run once per test binary
// (fullResult), the event names its runs recorded and the number of tracers
// (measured runs) each experiment made.
var suite struct {
	once     sync.Once
	results  map[string]Result
	errs     map[string]error
	recorded map[string]bool
	tracers  map[string]int
}

// fullResult returns experiment id's full-size Result, running the whole
// suite on first use, in All's order and from an empty scaling-point memo,
// through a newTracer wrapper that counts each run's tracers and collects the
// names of the events they record.
func fullResult(t *testing.T, id string) Result {
	t.Helper()
	suite.once.Do(func() {
		defer func(saved func() *trace.Tracer) { newTracer = saved }(newTracer)
		var tracers []*trace.Tracer
		newTracer = func() *trace.Tracer {
			tr := trace.New()
			tracers = append(tracers, tr)
			return tr
		}
		scalingPoints.Lock()
		scalingPoints.m = map[scalingKey]tuning.Measurement{}
		scalingPoints.Unlock()
		suite.results, suite.errs = map[string]Result{}, map[string]error{}
		suite.recorded, suite.tracers = map[string]bool{}, map[string]int{}
		for _, e := range All() {
			suite.results[e.ID], suite.errs[e.ID] = Run(e.ID)
			suite.tracers[e.ID] = len(tracers)
			for _, tr := range tracers {
				for _, name := range tr.Names() {
					suite.recorded[name] = true
				}
			}
			tracers = nil // the names are all the tests need: let the events go
		}
	})
	if err := suite.errs[id]; err != nil {
		t.Fatal(err)
	}
	res, ok := suite.results[id]
	if !ok {
		t.Fatalf("experiment %q is not registered", id)
	}
	return res
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
		v, ok := fullResult(t, id).Scalars[name]
		if !ok {
			t.Errorf("%s: no scalar %q", id, name)
		}
		got[name] = v
	}
	// The paper's Fig. 5, on the paper's baseline profile: slabs fastest below
	// 64 nodes, pencils from 64 on (the whole shape: TestFig5Shape).
	if got["crossover_nodes"] != 64 {
		t.Errorf("crossover_nodes = %v, want 64 (paper Fig. 5)", got["crossover_nodes"])
	}
	// The paper's Fig. 11, on the paper's baseline profile: ≈30 %.
	if p := got["gpu_aware_penalty"]; p < 0.25 || p > 0.35 {
		t.Errorf("gpu_aware_penalty = %.4f, want within [0.25, 0.35] (paper Fig. 11: ≈30 %%)", p)
	}
	// The paper's Fig. 12, heFFTe on the paper's baseline profile: ≈40 %.
	if r := got["kspace_reduction"]; r < 0.35 || r > 0.45 {
		t.Errorf("kspace_reduction = %.4f, want within [0.35, 0.45] (paper Fig. 12: ≈40 %%)", r)
	}
	// The paper's Fig. 13 on the paper's baseline profile: batching 64³
	// transforms makes each ≥ 1.5× cheaper on every system and node count.
	if s := got["batch_speedup"]; s < 1.5 {
		t.Errorf("batch_speedup = %.2f, want ≥ 1.5", s)
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
	full := nodeSweep(128)
	if full[0] != 1 || full[len(full)-1] != 128 {
		t.Errorf("full sweep = %v", full)
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

// TestExperimentsSmoke checks every experiment's full-size Result, elastic
// included: it has sections, each row as wide as its header, rows whose time
// columns add up, and finite scalars — the end-to-end test of the harness.
// Every event name in the package's lists must be recorded by at least one of
// the runs.
func TestExperimentsSmoke(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			res := fullResult(t, e.ID)
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
	for _, list := range [][]string{fig3Events, lammpsShortRange} {
		for _, name := range list {
			if !suite.recorded[name] {
				t.Errorf("event %q is listed but no experiment records it", name)
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
	for id, variants := range map[string][]core.Options{"fig6": fig6Variants, "fig7": fig7Variants} {
		res := fullResult(t, id)
		rows := res.Sections[0].Rows
		total := rows[len(rows)-1]
		for i, v := range variants {
			if want := breakdownRun(v).TotalPerFFT; total[i+1].V != want {
				t.Errorf("%s %s: TOTAL %g, time per transform %g", id, res.Sections[0].Header[i+1], total[i+1].V, want)
			}
		}
	}
}

// TestCommDominatesFig7 is DESIGN §5's target at the paper's scale (512³ on
// 24 GPUs): communication is more than 90 % of the runtime for both P2P
// variants, and fig7's two TOTALs are within 10 % of each other.
func TestCommDominatesFig7(t *testing.T) {
	for _, v := range fig7Variants {
		m := breakdownRun(v)
		if frac := m.CommPerFFT / m.TotalPerFFT; frac <= 0.9 {
			t.Errorf("%v: comm %.1f%% of the runtime, want > 90%%", v.Backend, 100*frac)
		}
	}
	s := fullResult(t, "fig7").Sections[0]
	total := s.Rows[len(s.Rows)-1]
	a, b := total[1], total[2]
	if r := max(a.V, b.V) / min(a.V, b.V); r > 1.1 {
		t.Errorf("TOTAL %s %s and %s %s differ by %.1f%%, want within 10%%", s.Header[1], a.Text, s.Header[2], b.Text, 100*(r-1))
	}
}

// TestFig8Shape checks Fig. 8's shape on the paper's baseline profile and on
// the tuned one: at every node count of the 1–128 sweep the GPU-aware total
// is below the host-staged total, and from 2 nodes on each total falls with
// every doubling. One node is left out of the second rule: its exchanges stay
// on NVLink, so the step to two nodes is the first over the network.
func TestFig8Shape(t *testing.T) {
	s := fullResult(t, "fig8").Sections[0]
	if n := len(s.Rows); n != len(nodeSweep(128)) {
		t.Fatalf("%d rows, want one per node count of the 1–128 sweep", n)
	}
	for pi, profile := range []string{"baseline", "tuned"} {
		aware, host := 4+4*pi, 5+4*pi
		for i, row := range s.Rows {
			if row[aware].V >= row[host].V {
				t.Errorf("%s, %s nodes: %s %s not below %s %s", profile, row[0].Text, s.Header[aware], row[aware].Text, s.Header[host], row[host].Text)
			}
			if i < 2 {
				continue
			}
			for _, c := range []int{aware, host} {
				if prev := s.Rows[i-1]; row[c].V >= prev[c].V {
					t.Errorf("%s: %s %s at %s nodes, not below %s at %s", profile, s.Header[c], row[c].Text, row[0].Text, prev[c].Text, prev[0].Text)
				}
			}
		}
	}
}

// TestFig9Shape checks Fig. 9's shape: GPU-aware P2P's total is below the
// host-staged one from 1 to 32 nodes and above it at 64 and 128, where each
// rank's per-message RDMA overhead over hundreds of peers outweighs the
// staging copies it saves.
func TestFig9Shape(t *testing.T) {
	s := fullResult(t, "fig9").Sections[0]
	if n := len(s.Rows); n != len(nodeSweep(128)) {
		t.Fatalf("%d rows, want one per node count of the 1–128 sweep", n)
	}
	const aware, host = 4, 5
	for _, row := range s.Rows {
		above, want := row[aware].V > row[host].V, "below"
		if row[0].V >= 64 {
			want = "above"
		}
		if above != (want == "above") {
			t.Errorf("%s nodes: %s %s not %s %s %s", row[0].Text, s.Header[aware], row[aware].Text, want, s.Header[host], row[host].Text)
		}
	}
}

// TestR2CShape checks r2c's shape: at both grids the real-to-complex plan
// saves 40–50 % of the complex-to-complex plan's time per transform — the
// input reshape moves half the bytes and the spectrum is half the volume.
func TestR2CShape(t *testing.T) {
	s := fullResult(t, "r2c").Sections[0]
	if n := len(s.Rows); n != 2 {
		t.Fatalf("%d rows, want one per grid (256³, 512³)", n)
	}
	saving := len(s.Header) - 1
	for _, row := range s.Rows {
		if v := row[saving].V; v < 0.40 || v > 0.50 {
			t.Errorf("%s: %s %s, want within [40%%, 50%%]", row[0].Text, s.Header[saving], row[saving].Text)
		}
	}
}

// TestWarpXShape checks Section IV.D's argument on the WarpX field update:
// the MPI_Alltoallw redistribution WarpX uses is slower per step than both
// tuned Alltoallv and P2P, and padded Alltoall is slower still on brick I/O.
// Each subtest is one "fast beats slow" claim of the note.
func TestWarpXShape(t *testing.T) {
	s := fullResult(t, "warpx").Sections[0]
	step := map[string]Cell{}
	for _, row := range s.Rows {
		step[row[0].Text] = row[1]
	}
	for _, c := range []struct{ fast, slow string }{
		{"alltoallv", "alltoallw"},
		{"p2p", "alltoallw"},
		{"alltoallw", "alltoall"},
	} {
		t.Run(c.fast+"_beats_"+c.slow, func(t *testing.T) {
			f, okf := step[c.fast]
			sl, oks := step[c.slow]
			if !okf || !oks {
				t.Fatalf("no %s or no %s row", c.fast, c.slow)
			}
			if f.V >= sl.V {
				t.Errorf("%s %s per step not faster than %s %s", c.fast, f.Text, c.slow, sl.Text)
			}
		})
	}
}

// TestShrinkShape checks Algorithm 1's grid shrinking on 96 ranks: a 16³
// transform runs faster on its sub-grid, and a 64³ one fills every rank, so
// its shrunk plan is the full-grid plan. On every grid, one subtest each, the
// active-ranks column is the pencil grid of a plan built the same way.
func TestShrinkShape(t *testing.T) {
	s := fullResult(t, "shrink").Sections[0]
	if n := len(s.Rows); n != 3 {
		t.Fatalf("%d rows, want one per grid (16³, 32³, 64³)", n)
	}
	const active, speedup = 4, 5
	for i, n := range []int{16, 32, 64} {
		row := s.Rows[i]
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var pg, qg int
			res := mpisim.NewWorld(machine.Summit(), shrinkRanks, mpisim.Options{}).Run(func(c *mpisim.Comm) {
				p, err := core.NewPlan(c, shrinkConfig(n, shrinkThreshold))
				if err != nil {
					panic(err)
				}
				defer p.Close()
				if c.Rank() == 0 {
					pg, qg = p.PencilGrid()
				}
			})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if got := int(row[active].V); got != pg*qg {
				t.Errorf("%s: %d active ranks, the plan's pencil grid is %d×%d", row[0].Text, got, pg, qg)
			}
			switch n {
			case 16:
				if row[speedup].V <= 1 {
					t.Errorf("16³: speedup %s, want > 1", row[speedup].Text)
				}
			case 64:
				if row[speedup].V != 1 || row[active].V != shrinkRanks {
					t.Errorf("64³: speedup %s on %s active ranks, want 1 on all %d", row[speedup].Text, row[active].Text, shrinkRanks)
				}
			}
		})
	}
}

// TestIntegrityShape is the integrity table's acceptance gate: on every grid
// each protected configuration costs between 0 and 3 % more than off, and
// each recovery row reports at least one recovery.
func TestIntegrityShape(t *testing.T) {
	res := fullResult(t, "integrity")
	overhead, recovery := res.Sections[0], res.Sections[1]
	for _, row := range overhead.Rows {
		if row[1].Text == "off" {
			continue
		}
		if v := row[3].V; v < 0 || v > 0.03 {
			t.Errorf("%s %s: overhead %s, want within [0%%, 3%%]", row[0].Text, row[1].Text, row[3].Text)
		}
	}
	if n := len(overhead.Rows); n != 12 {
		t.Errorf("%d overhead rows, want 3 grids × 4 configurations", n)
	}
	for _, row := range recovery.Rows[1:] {
		if row[3].V < 1 {
			t.Errorf("%s: %s, want at least one recovery", row[0].Text, row[3].Text)
		}
	}
}

// TestFig5Shape checks Fig. 5's shape on the paper's baseline profile: slabs
// are fastest at every node count from 2 to 32 and pencils at every one from
// 64 to 512.
// One node is the documented exception: at 6 ranks Table III's 1×2×3 input
// grid is the x-pencil grid, so the pencil plan starts without a reshape and
// its exchanges run among 2–3 ranks where the slab plan's run among all 6.
func TestFig5Shape(t *testing.T) {
	s := fullResult(t, "fig5").Sections[0]
	if n := len(s.Rows); n != len(nodeSweep(512)) {
		t.Fatalf("%d rows, want one per node count of the 1–512 sweep", n)
	}
	const slabs, pencils = 2, 3
	for _, row := range s.Rows {
		nodes := row[0].V
		if nodes >= 2 && nodes <= 32 && row[slabs].V >= row[pencils].V {
			t.Errorf("%s nodes: %s %s not below %s %s", row[0].Text, s.Header[slabs], row[slabs].Text, s.Header[pencils], row[pencils].Text)
		}
		if nodes >= 64 && row[pencils].V >= row[slabs].V {
			t.Errorf("%s nodes: %s %s not below %s %s", row[0].Text, s.Header[pencils], row[pencils].Text, s.Header[slabs], row[slabs].Text)
		}
	}
}

// TestModelCheckShape checks modelcheck's expected shape over the 1–128-node
// sweep: the simulated pencil exchanges never take longer than eqs. 2–3
// predict, and the ratio is lowest on one node.
func TestModelCheckShape(t *testing.T) {
	rows := fullResult(t, "modelcheck").Sections[0].Rows
	if n := len(rows); n != len(nodeSweep(128)) {
		t.Fatalf("%d rows, want one per node count of the 1–128 sweep", n)
	}
	ratio := len(rows[0]) - 1
	for _, row := range rows {
		if row[ratio].V > 1 || row[ratio].V < rows[0][ratio].V {
			t.Errorf("%s nodes: ratio %s, want ≤ 1 and ≥ the one-node %s", row[0].Text, row[ratio].Text, rows[0][ratio].Text)
		}
	}
}

// TestScalingPointsMeasuredOnce: the strong-scaling figures share their
// points through scalingPoint's memo. The suite runs them from an empty memo
// in the order fig11, fig4, fig5, fig8, fig9: fig11 measures its 16-node
// pair on the paper's baseline profile and tuned (4 points; the tuned pair is
// also fig4's), fig4 the rest of its 4 points per node count, fig5 both slab
// columns, the baseline pencil column but fig11's 16-node point and the tuned
// pencil points above fig4's 128 nodes, fig8 only its host-staged baseline
// column but fig11's, and fig9 nothing — fig4's points are theirs.
func TestScalingPointsMeasuredOnce(t *testing.T) {
	fullResult(t, "fig4")
	fig4 := 4 * len(nodeSweep(128))
	for id, want := range map[string]int{
		"fig11": 4,
		"fig4":  fig4 - 2,
		"fig5":  3*len(nodeSweep(512)) + 1,
		"fig8":  len(nodeSweep(128)) - 1,
		"fig9":  0,
	} {
		if got := suite.tracers[id]; got != want {
			t.Errorf("%s measured %d points, want %d", id, got, want)
		}
	}
}

// TestExperimentsDeterministic runs every experiment again and wants the
// suite's Results — the end-to-end statement of the simulator's virtual-time
// determinism. elastic is skipped: its resume column depends on goroutine
// timing after a kill (ROADMAP item 2). Memoized scaling points are not
// measured again here: they are checked bit for bit across processes by
// TestExperimentsGolden, and in process through the other measure callers.
func TestExperimentsDeterministic(t *testing.T) {
	for _, e := range All() {
		if e.ID == "elastic" {
			continue
		}
		want := fullResult(t, e.ID)
		got, err := Run(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Result differs between runs", e.ID)
		}
	}
}

// TestExperimentsGolden renders every full-size Result and compares it with
// its "== id:" block of experiments_full.txt, the text `fftbench -all` prints
// (elastic aside, see TestExperimentsDeterministic); the file holds nothing
// else.
func TestExperimentsGolden(t *testing.T) {
	data, err := os.ReadFile("../../experiments_full.txt")
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
	for id := range golden {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiments_full.txt has a block %q that no experiment prints", id)
		}
	}
	for _, e := range All() {
		if e.ID == "elastic" {
			continue
		}
		var got strings.Builder
		if err := Render(&got, e, fullResult(t, e.ID)); err != nil {
			t.Fatal(err)
		}
		if want := golden[e.ID]; got.String() != want {
			t.Errorf("%s: rendered output differs from experiments_full.txt; if the change is intended, regenerate it\n"+
				"with `make experiments` and keep the committed elastic block\n--- got ---\n%s--- want ---\n%s",
				e.ID, got.String(), want)
		}
	}
}
