package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
// stderr, nothing on stdout, exit status 2 — instead of running a default.
func TestBadFlagsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-machine", "bogus", "-n", "8", "-ranks", "2", "-iters", "2"},
		{"-shrink", "-5", "-n", "8", "-ranks", "2", "-iters", "2"},
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
