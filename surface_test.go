package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKeep lists the exported identifiers under internal/ and heffte/ that
// stay although no non-test file names them, each with the reason it stays.
var surfaceKeep = map[string]string{
	// The paper's equations, waiting for the figure-shape assertions.
	"SlabBandwidth":  "model: the slab bandwidth solved from a measured exchange time",
	"CrossoverNodes": "model: the node count where pencils overtake slabs (Fig. 5)",
	"Extrapolate":    "model: the n^-γ extrapolation the paper offers where the equations fail",

	// Test hooks and references.
	"MsgCost":           "machine.Model.MsgCost, the block-placement price the pricer tests compare against",
	"SetPlanCacheLimit": "fft plan-cache bound the LRU tests set",
	"PlanCacheLen":      "fft plan-cache size the LRU tests read",
	"ShrinkWithFaults":  "mpisim.World.ShrinkWithFaults, the shrink tests' explicit fault plan",
	"Default":           "topo.Default, the block-placement, fabric-less System the topology tests build on",
	"Leader":            "topo.System.Leader, the node-leader rule the topology tests check",
	"Zero":              "faults.Effect.Zero, the no-op predicate the fault tests assert",

	// Complete facade enums and aliases.
	"FaultKind":    "heffte alias of the fault kinds; its constants name them",
	"FaultStall":   "FaultKind constant; the enum stays complete",
	"FaultJitter":  "FaultKind constant; the enum stays complete",
	"FaultDegrade": "FaultKind constant; the enum stays complete",
	"FaultDrop":    "FaultKind constant; the enum stays complete",
	"FaultCorrupt": "FaultKind constant; the enum stays complete",
	"FaultKill":    "FaultKind constant; the enum stays complete",
	"Topology":     "heffte alias of a world's resolved fabric view (topo.System)",

	// Documented API whose only callers are examples, README and tests.
	"HalfGlobal": "RealPlan.HalfGlobal, shown by the heffte package example",
	"Momentum":   "hacc.Sim.Momentum, the conservation check of the hacc tests",
	"ForwardCtx": "Plan.ForwardCtx, the facade's cancellation entry point (README)",
	"InverseCtx": "Plan.InverseCtx, ForwardCtx's inverse",
	"OutBox":     "Plan/RealPlan.OutBox, where a plan with InBoxes != OutBoxes leaves its output (README)",
}

// TestExportedSurfaceHasCallers fails on any exported func, method, type,
// const or var declared under internal/ or heffte/ whose name appears in no
// non-test Go file of the module (benchmark/, cmd/ and examples/ included),
// unless surfaceKeep names it. The scan is by name, so a method shares its
// callers with every other method of the same name.
func TestExportedSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> declaring positions
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		slash := filepath.ToSlash(path)
		if !strings.HasPrefix(slash, "internal/") && !strings.HasPrefix(slash, "heffte/") {
			return nil
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				declIdents[id] = true
				declared[id.Name] = append(declared[id.Name], fset.Position(id.Pos()).String())
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	for name, at := range declared {
		if !used[name] && surfaceKeep[name] == "" {
			unused = append(unused, name+" ("+strings.Join(at, ", ")+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but named by no non-test file: %s", u)
	}
	for name := range surfaceKeep {
		if _, ok := declared[name]; !ok {
			t.Errorf("surfaceKeep names %s, which is no longer declared under internal/ or heffte/", name)
		}
	}
}
