// Command benchmark is this repository's benchmark: four named workloads, a
// small set of bounded end-to-end metrics on the host clock, and — in a
// separate traced run — per-layer metrics from replays of each module and the
// virtual-time breakdown. See README.md beside this file.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload dense128_r64 -seed 3 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is the timed region of one run; BENCHMARK.json's
// run_seconds repeats it for the driver.
const defaultSeconds = 20

// value is one reported number with the sample count behind it (1 for a
// single reading such as a heap size).
type value struct {
	v       float64
	samples int
}

// runResult is what one (workload, traced?) run produced.
type runResult struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]value
	notes     []string // context printed beside the table (array vs LLC size, …)
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	traceOut string
}

func main() {
	var o options
	var out string
	var runs int
	var compare, manifest bool
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "payload seed; the program only ever sees the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the timed region")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run: per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&o.quick, "quick", false, "small stand-in shapes (16³/32³, 8–24 ranks), seconds, not minutes")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write the harness spans as Chrome trace JSON to this file")
	flag.StringVar(&out, "out", "", "write the full record (header, every metric with unit, clock, samples) as JSON")
	flag.IntVar(&runs, "runs", 1, "all-workload mode: repeat with seeds seed, seed+1, … so -compare can see the A/A spread")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: benchmark -compare base.json new.json")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json for this schema")
	flag.Parse()
	o.trace = trace != 0

	err := func() error {
		switch {
		case manifest:
			return json.NewEncoder(os.Stdout).Encode(buildManifest())
		case compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare needs two files")
			}
			return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
			return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs present; host numbers would measure oversubscription",
				runtime.GOMAXPROCS(0), runtime.NumCPU())
		}
		if o.quick && !flagSet("seconds") {
			o.seconds = 0.3
		}
		if o.workload == "" {
			return runAll(o, runs, out)
		}
		return runOne(o, out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runOne runs one workload in this process, prints its table, and ends
// standard output with the one-line result object. A failed check prints the
// failure count but no timing metric, and exits non-zero.
func runOne(o options, out string) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	defs, layer := endToEnd, "end_to_end"
	if o.trace {
		defs, layer = perLayer, "per_layer"
	}
	if !res.correct {
		res.metrics = nil
	}
	printTable(os.Stdout, w.name, res, defs)
	if out != "" {
		rec := newRecord(o)
		rec.add(w.name, res, defs, layer)
		if err := rec.write(out); err != nil {
			return err
		}
	}
	// encoding/json prints a float64 with every digit it has: the shortest
	// string that parses back to the same value.
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]metric{}}
	for _, d := range defs {
		if v, ok := res.metrics[d.Name]; ok {
			line.Metrics[d.Name] = metric{v.v, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.correct {
		return fmt.Errorf("%s: %d of %d operations failed the correctness checks", w.name, res.failed, res.attempted)
	}
	return nil
}

// runAll runs every workload, untraced then traced, each in a process of its
// own so heap, pools and peak RSS of one never leak into the next.
func runAll(o options, runs int, out string) error {
	rec := newRecord(o)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			for traced := 0; traced < 2; traced++ {
				part := filepath.Join(tmp, "part.json")
				args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed + int64(run)),
					"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(traced), "-out", part}
				if o.quick {
					args = append(args, "-quick")
				}
				if traced == 1 && o.traceOut != "" {
					ext := filepath.Ext(o.traceOut)
					args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ext)+"."+w.name+ext)
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s -trace %d: %w", w.name, traced, err)
				}
				if err := rec.merge(part); err != nil {
					return err
				}
			}
		}
	}
	if out != "" {
		return rec.write(out)
	}
	return nil
}

func printTable(w *os.File, name string, res *runResult, defs []metricDef) {
	fmt.Fprintf(w, "== %s  correct=%v  failed/attempted=%d/%d\n", name, res.correct, res.failed, res.attempted)
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			continue
		}
		bound := ""
		switch {
		case d.Bound > 0:
			bound = fmt.Sprintf("bound %g%%", 100*d.Bound)
		case d.Exact:
			bound = "exact"
		}
		fmt.Fprintf(w, "  %-30s %16.6g %-11s %-8s n=%-6d %s\n", d.Name, v.v, d.Unit, d.Clock, v.samples, bound)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  note:", n)
	}
}

// manifestFile mirrors BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWork{w.name, w.why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}

// llcBytes reads the size of the largest cache of CPU 0 from sysfs (0 when
// the host does not expose it).
func llcBytes() int {
	best := 0
	files, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil {
			best = max(best, n*mult)
		}
	}
	return best
}

// commit asks git for the checked-out commit ("unknown" outside a repository).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
