package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// FFTPLAN_AS_MAIN set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FFTPLAN_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExit2: a flag value the model cannot evaluate is rejected up
// front — one "fftplan: …" line on stderr, nothing on stdout, exit status 2 —
// instead of a goroutine trace, a negative grid, an infinite time, a
// silently ignored -dead, a plan flag beside -phase (which ignores it) or
// flags silently dropped after a stray argument.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-4"},
		{"-ranks", "0"},
		{"-bw", "0"},
		{"-bw", "-2e9"},
		{"-lat", "-1e-6"},
		{"-dead", "-1"},
		{"-ranks", "24", "-dead", "24"},
		{"-ranks", "24", "-dead", "30"},
		{"-n", "64", "ranks", "24"}, // a stray argument ends flag parsing
		// -phase sweeps its own grid: a plan flag beside it would be ignored.
		{"-phase", "-n", "64"},
		{"-phase", "-ranks", "24"},
		{"-phase", "-wire", "fp16"},
		{"-phase", "-dead", "3"},
		{"-phase", "-wire", "fp16", "-n", "64", "-dead", "3"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "FFTPLAN_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit: %v, want status 2", err)
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "fftplan: ") {
				t.Errorf("stderr is not one \"fftplan: …\" line:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}

// TestOutputGolden: fftplan's stdout is deterministic, and for these flag sets
// it is pinned byte for byte in testdata/.
func TestOutputGolden(t *testing.T) {
	for _, g := range []struct {
		file string
		args []string
	}{
		{"default.txt", nil},
		{"n512_r768_fp32_dead2.txt", []string{"-n", "512", "-ranks", "768", "-wire", "fp32", "-dead", "2"}},
		{"phase.txt", []string{"-phase"}},
	} {
		t.Run(g.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(os.Args[0], g.args...)
			cmd.Env = append(os.Environ(), "FFTPLAN_AS_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fftplan %s: stdout differs from testdata/%s\ngot:\n%s\nwant:\n%s", strings.Join(g.args, " "), g.file, got, want)
			}
		})
	}
}
