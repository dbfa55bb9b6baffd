package main

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/heffte/serve"
)

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
