package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// FFTBENCH_AS_MAIN set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FFTBENCH_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExit2: a command line fftbench cannot run as written is rejected
// before any experiment starts — one "fftbench: …" line on stderr, nothing on
// stdout, exit status 2 — instead of running one mode of several, dropping
// the flags after a stray argument, or failing with status 1 once the
// experiment lookup misses.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "fig99"},
		{"-exp", "table3", "-list"},
		{"-all", "-exp", "table3"},
		{"-list", "-all"},
		{"-list", "fig4"}, // a stray argument ends flag parsing
		{"exp", "table3"}, // so does a flag without its dash
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "FFTBENCH_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit: %v, want status 2", err)
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "fftbench: ") {
				t.Errorf("stderr is not one \"fftbench: …\" line:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}
