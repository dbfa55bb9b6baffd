package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
)

// record is the -out file. Its schema is fixed by the PR that added the
// benchmark: later PRs add metric rows, never rename.
type record struct {
	Schema     int     `json:"schema"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	LLCBytes   int     `json:"llc_bytes"`
	// Workloads maps workload name → metric name → row.
	Workloads map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	// Correct, Attempted and Failed fold every run recorded here.
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]*metricRecord `json:"metrics"`
}

type metricRecord struct {
	Unit  string `json:"unit"`
	Clock string `json:"clock"`
	Layer string `json:"layer"` // "end_to_end" or "per_layer"
	// Moves is the prediction: which end-to-end metric this row should move.
	Moves string `json:"moves,omitempty"`
	// Samples is the sample count behind one value (of the latest run).
	Samples int `json:"samples"`
	// Values holds one value per run (-runs), in run order.
	Values []float64 `json:"values"`
}

func newRecord(o options) *record {
	return &record{
		Schema: 1, Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Quick: o.quick, LLCBytes: llcBytes(),
		Workloads: map[string]*workloadRecord{},
	}
}

func (r *record) workload(name string) *workloadRecord {
	w := r.Workloads[name]
	if w == nil {
		w = &workloadRecord{Correct: true, Metrics: map[string]*metricRecord{}}
		r.Workloads[name] = w
	}
	return w
}

// add appends one run's values; layer is "end_to_end" or "per_layer".
func (r *record) add(name string, res *runResult, defs []metricDef, layer string) {
	w := r.workload(name)
	w.Correct = w.Correct && res.correct
	w.Attempted += res.attempted
	w.Failed += res.failed
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			continue
		}
		m := w.Metrics[d.Name]
		if m == nil {
			m = &metricRecord{Unit: d.Unit, Clock: d.Clock, Layer: layer, Moves: d.Moves}
			w.Metrics[d.Name] = m
		}
		m.Samples = v.samples
		m.Values = append(m.Values, v.v)
	}
}

// merge folds the record a child process wrote into r.
func (r *record) merge(path string) error {
	part, err := readRecord(path)
	if err != nil {
		return err
	}
	for name, pw := range part.Workloads {
		w := r.workload(name)
		w.Correct = w.Correct && pw.Correct
		w.Attempted += pw.Attempted
		w.Failed += pw.Failed
		for mn, pm := range pw.Metrics {
			if m := w.Metrics[mn]; m != nil {
				m.Samples = pm.Samples
				m.Values = append(m.Values, pm.Values...)
			} else {
				w.Metrics[mn] = pm
			}
		}
	}
	return nil
}

func (r *record) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	return nil
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read record: %w", err)
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("read record %s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of -compare.
const (
	verdictExactSame   = "exact"
	verdictExactDiffer = "DIFFERS"
	verdictUnchanged   = "unchanged"
	verdictImproved    = "improved"
	verdictRegressed   = "REGRESSED"
	verdictUnresolved  = "unresolved"
	verdictInfo        = "info"
)

// verdict classifies one workload × metric row. Exact rows must match
// bit-for-bit. Bounded rows compare medians: worse by more than the bound
// regresses, better by more than the bound improves, otherwise unchanged —
// unless the base's own run-to-run spread exceeds the bound, in which case
// the runs cannot resolve the question and the row says so. Per-layer host
// rows carry no bound and are informational.
func verdict(d metricDef, base, cur []float64) (ratio float64, v string) {
	mb, mc := median(base), median(cur)
	if mb != 0 {
		ratio = mc / mb
	}
	switch {
	case d.Exact:
		if mb == mc {
			return ratio, verdictExactSame
		}
		return ratio, verdictExactDiffer
	case d.Bound == 0:
		return ratio, verdictInfo
	case iqrShare(base) > d.Bound:
		return ratio, verdictUnresolved
	}
	worse := ratio - 1 // share by which the new median is worse
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case worse > d.Bound:
		return ratio, verdictRegressed
	case worse < -d.Bound:
		return ratio, verdictImproved
	}
	return ratio, verdictUnchanged
}

// compareFiles prints one row per workload × metric with base, new, ratio
// (new over base) and verdict, and fails when any row regressed or an exact
// row differs.
func compareFiles(out io.Writer, basePath, newPath string) error {
	base, err := readRecord(basePath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tbase (%s)\tnew (%s)\tnew/base\tspread\tverdict\n", base.Commit, cur.Commit)
	bad := 0
	for _, w := range workloads {
		bw, cw := base.Workloads[w.name], cur.Workloads[w.name]
		if bw == nil || cw == nil {
			continue
		}
		if cw.Failed > bw.Failed {
			fmt.Fprintf(tw, "%s\tfailed ops\tcount\t%d/%d\t%d/%d\t\t\t%s\n", w.name, bw.Failed, bw.Attempted, cw.Failed, cw.Attempted, verdictRegressed)
			bad++
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				bm, cm := bw.Metrics[d.Name], cw.Metrics[d.Name]
				if bm == nil || cm == nil {
					continue
				}
				ratio, v := verdict(d, bm.Values, cm.Values)
				if v == verdictRegressed || v == verdictExactDiffer {
					bad++
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.1f%% (n=%d)\t%s\n", w.name, d.Name, d.Unit,
					median(bm.Values), median(cm.Values), ratio, 100*iqrShare(bm.Values), len(bm.Values), v)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or differ", bad)
	}
	return nil
}
