package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/heffte/serve"
)

// TestMain lets the test binary stand in for the command: with
// FFTSERVE_AS_MAIN set it runs main on its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FFTSERVE_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExit2: a flag value the load generator cannot run is rejected
// up front — one "fftserve: …" line on stderr, nothing on stdout, exit status
// 2 — instead of a goroutine trace, a run of zero requests, a value
// silently replaced or flags silently dropped after a stray argument. The
// other flags keep each row short.
func TestBadFlagsExit2(t *testing.T) {
	quick := []string{"-shapes", "8x8x8", "-rate", "0", "-requests", "1"}
	for _, args := range [][]string{
		append([]string{"-mode", "perplan", "-ranks", "0"}, quick...),
		append([]string{"-ranks", "0"}, quick...),
		append([]string{"-clients", "0"}, quick...),
		append([]string{"-maxbatch", "-1"}, quick...),
		append([]string{"-workers", "0"}, quick...),
		append([]string{"-queue", "0"}, quick...),
		append([]string{"-deadline", "-1s"}, quick...),
		{"-shapes", "8x8x8", "-rate", "0", "-requests", "0"},
		{"-shapes", "8x8x8", "-rate", "-3", "-requests", "1"},
		{"-shapes", "8x8x8", "-rate", "5", "-duration", "-1s"},
		append([]string{"-ranks", "2", "clients", "4"}, quick...), // a stray argument ends flag parsing
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], args...)
			cmd.Env = append(os.Environ(), "FFTSERVE_AS_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit: %v, want status 2", err)
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "fftserve: ") {
				t.Errorf("stderr is not one \"fftserve: …\" line:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}

func TestParseShapes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want [][3]int // nil = must be rejected
	}{
		{"8x8x8, 16x4x2", [][3]int{{8, 8, 8}, {16, 4, 2}}},
		{"64x64x64,", [][3]int{{64, 64, 64}}},
		{"-4x4x4", nil},
		{"0x4x4", nil},
		{"8x8x8x9junk", nil},
		{"8x8x8junk", nil},
		{"8x8", nil},
		{"", nil},
		{" , ", nil},
	} {
		got, err := parseShapes(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseShapes(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseShapes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// ciSeeds are the seeds `make chaos` and CI run each scenario at.
var ciSeeds = map[string][]int64{
	"faults":  {7},
	"sdc":     {3, 11, 23},
	"elastic": {5},
}

// TestChaosScenarios runs every row of the scenario table in smoke mode at
// its CI seeds, and checks the table itself: unique names, and at least one
// recovery counter required per row (a scenario that requires nothing proves
// nothing fired).
func TestChaosScenarios(t *testing.T) {
	seen := map[string]bool{}
	for i := range scenarios {
		sc := &scenarios[i]
		if seen[sc.name] {
			t.Errorf("scenario name %q appears twice", sc.name)
		}
		seen[sc.name] = true
		if lookupScenario(sc.name) != sc {
			t.Errorf("lookupScenario(%q) does not return row %d", sc.name, i)
		}
		required := 0
		for _, sg := range sc.stages {
			if sg.require != nil {
				required += len(sg.require(serve.Stats{}))
			}
		}
		if required == 0 {
			t.Errorf("scenario %q requires no counter", sc.name)
		}
		if len(ciSeeds[sc.name]) == 0 {
			t.Errorf("scenario %q has no CI seed", sc.name)
		}
		for _, seed := range ciSeeds[sc.name] {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				var out bytes.Buffer
				if err := sc.run(&out, seed, true); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				ok := fmt.Sprintf("CHAOS-%s OK seed=%d ", strings.ToUpper(sc.name), seed)
				if !strings.Contains(out.String(), ok) {
					t.Errorf("output lacks %q:\n%s", ok, out.String())
				}
			})
		}
	}
	if lookupScenario("no-such-scenario") != nil {
		t.Error("lookupScenario finds a scenario that is not in the table")
	}
}

// chaosSchedules lists the fault schedule every scenario stage arms, as the
// plan's fingerprint, for each CI seed, both chaos shapes under the labels
// the server passes, the first eight engine builds and block slots.
func chaosSchedules() string {
	var b strings.Builder
	slots := []int{0, 1, 2, 3}
	for _, sc := range scenarios {
		for si, sg := range sc.stages {
			for _, seed := range ciSeeds[sc.name] {
				for _, shape := range []string{"16x16x16/auto/r4", "24x24x24/auto/r4"} {
					for build := 0; build < 8; build++ {
						fp := sg.faults(seed, shape, build, slots).Fingerprint()
						fmt.Fprintf(&b, "%s stage %d seed %d %s build %d slots %v: %s\n", sc.name, si, seed, shape, build, slots, fp)
					}
				}
			}
		}
	}
	return b.String()
}

// TestChaosSchedulesGolden pins every schedule the chaos scenarios arm to
// testdata/chaos_schedules.txt. It calls the scenarios' fault functions
// directly, so it is deterministic even where a run's build count is not.
func TestChaosSchedulesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/chaos_schedules.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := chaosSchedules()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("schedule line %d = %q, golden has %q (%d lines against %d)", i+1, gl[i], wl[min(i, len(wl)-1)], len(gl), len(wl))
		}
	}
	t.Fatalf("golden has %d lines, the scenarios arm %d", len(wl), len(gl))
}
