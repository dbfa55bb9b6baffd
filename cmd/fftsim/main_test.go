package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with FFTSIM_AS_MAIN
// set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FFTSIM_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExit2: a bad flag is rejected up front — one "fftsim: …" line on
// stderr, nothing on stdout, exit status 2 — instead of running a default,
// running a setting the backend ignores, or running the flags before a stray
// argument and ignoring the rest.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-machine", "bogus", "-n", "8", "-ranks", "2", "-iters", "2"},
		{"-shrink", "-5", "-n", "8", "-ranks", "2", "-iters", "2"},
		{"-n", "8", "ranks", "2", "-iters", "2"}, // a stray argument ends flag parsing
		// Settings the backend does not run: no schedules off alltoallv, no
		// wire compression without pack kernels.
		{"-backend", "p2p", "-algo", "ring", "-n", "8", "-ranks", "2", "-iters", "2"},
		{"-backend", "alltoallw", "-wire", "fp32", "-n", "8", "-ranks", "2", "-iters", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "FFTSIM_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit: %v, want status 2", err)
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "fftsim: ") {
				t.Errorf("stderr is not one \"fftsim: …\" line:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}

// TestOutputGolden: fftsim's stdout is deterministic, and for these flag sets
// it is pinned byte for byte in testdata/. The 6144-rank row is the shape CI
// runs under a memory cap; -short skips it.
func TestOutputGolden(t *testing.T) {
	for _, g := range []struct {
		file  string
		args  []string
		large bool
	}{
		{"default.txt", nil, false},
		{"n64_r24_batch2_host_ring_fp32.txt", []string{"-n", "64", "-ranks", "24", "-batch", "2", "-no-gpu-aware", "-algo", "ring", "-wire", "fp32"}, false},
		{"slabs_p2p.txt", []string{"-decomp", "slabs", "-backend", "p2p"}, false},
		{"n512_r6144_pencils_iters2.txt", []string{"-n", "512", "-ranks", "6144", "-decomp", "pencils", "-iters", "2"}, true},
	} {
		t.Run(g.file, func(t *testing.T) {
			if g.large && testing.Short() {
				t.Skip("6144 ranks; skipped under -short")
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], g.args...)
			cmd.Env = append(os.Environ(), "FFTSIM_AS_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fftsim %s: stdout differs from testdata/%s\ngot:\n%s\nwant:\n%s", strings.Join(g.args, " "), g.file, got, want)
			}
		})
	}
}

// TestBreakdownAddsUp: the breakdown rows plus wait add up to the printed
// time per transform, within the rounding of the printed values.
func TestBreakdownAddsUp(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "32", "-ranks", "12", "-backend", "p2p-blocking", "-iters", "4"},
		{"-n", "32", "-ranks", "12", "-decomp", "slabs", "-batch", "2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "FFTSIM_AS_MAIN=1")
			out, err := cmd.Output()
			if err != nil {
				t.Fatal(err)
			}
			var total, sum, slack float64
			rows := 0
			inTable := false
			for _, line := range strings.Split(string(out), "\n") {
				if rest, ok := strings.CutPrefix(line, "time per transform: "); ok {
					v, half := parseSeconds(t, strings.Split(rest, "  ")[0])
					total, slack = v, slack+half
					continue
				}
				if strings.HasPrefix(line, "kernel") {
					inTable = true
					continue
				}
				if f := strings.Fields(line); inTable && len(f) >= 2 {
					v, half := parseSeconds(t, strings.Join(f[1:], " "))
					sum, slack, rows = sum+v, slack+half, rows+1
				}
			}
			if rows < 3 || !strings.Contains(string(out), "\nwait ") {
				t.Fatalf("no breakdown with a wait row in:\n%s", out)
			}
			if math.Abs(sum-total) > slack {
				t.Errorf("rows add up to %.4g s, time per transform %.4g s (rounding allows %.2g s):\n%s", sum, total, slack, out)
			}
		})
	}
}

// TestBatchReportsPerTransform: with -batch N the headline is per transform,
// not per batched call of N transforms. At 64³ on 6 ranks, batch 16 amortizes
// per-call costs, so its time per transform is below batch 1's (a per-call
// figure is ≈ 10× it), and at every batch the GFLOP/s is one transform's
// 5·N·log2 N over that time.
func TestBatchReportsPerTransform(t *testing.T) {
	const n = 64
	flops := 5 * float64(n*n*n) * math.Log2(float64(n*n*n))
	per := map[string]float64{}
	for _, batch := range []string{"1", "16"} {
		cmd := exec.Command(os.Args[0], "-n", strconv.Itoa(n), "-ranks", "6", "-batch", batch)
		cmd.Env = append(os.Environ(), "FFTSIM_AS_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			rest, ok := strings.CutPrefix(line, "time per transform: ")
			if !ok {
				continue
			}
			secs, gf, _ := strings.Cut(rest, "  (")
			v, half := parseSeconds(t, secs)
			g, err := strconv.ParseFloat(strings.TrimSuffix(gf, " GFLOP/s aggregate)"), 64)
			if err != nil {
				t.Fatalf("batch %s: unparsable rate in %q", batch, line)
			}
			if lo, hi := flops/(v+half)/1e9-0.05, flops/(v-half)/1e9+0.05; g < lo || g > hi {
				t.Errorf("batch %s: %s is %g GFLOP/s, want one transform's flops over it: %.1f–%.1f", batch, secs, g, lo, hi)
			}
			per[batch] = v
		}
	}
	if per["1"] == 0 || per["16"] == 0 {
		t.Fatalf("no time per transform: %v", per)
	}
	if per["16"] >= per["1"] {
		t.Errorf("batch 16 reports %.4g s per transform, batch 1 %.4g s: the batched figure is per call", per["16"], per["1"])
	}
}

// parseSeconds reads a FormatSeconds value and returns it with half a unit
// of its last printed digit.
func parseSeconds(t *testing.T, s string) (v, half float64) {
	t.Helper()
	if s == "0" {
		return 0, 0
	}
	num, unit, _ := strings.Cut(s, " ")
	scale := map[string]float64{"ns": 1e-9, "µs": 1e-6, "ms": 1e-3, "s": 1}[unit]
	x, err := strconv.ParseFloat(num, 64)
	if err != nil || scale == 0 {
		t.Fatalf("unparsable duration %q", s)
	}
	_, frac, _ := strings.Cut(num, ".")
	return x * scale, 0.5 * math.Pow10(-len(frac)) * scale
}
