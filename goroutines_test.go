package repro

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goStatements lists the only functions under internal/ and heffte/ that may
// start a goroutine, keyed "package.Function" or "package.Type.method":
// the simulated ranks, the serving layer's batch workers, and the one
// goroutine that hosts a serve engine's world. Everything below them runs on
// the goroutine that calls it, so a second level of parallelism (a worker
// pool inside a rank's kernels, say) has to be argued for here first.
var goStatements = map[string]bool{
	"mpisim.World.Run":          true, // one goroutine per rank
	"sched.New":                 true, // the scheduler's batch workers
	"serve.engine.startBackend": true, // the resident world of one engine
}

// TestGoStatementsOnlyWhereListed type-checks every non-test Go file of the
// module and fails on each go statement under internal/ or heffte/ outside
// the functions goStatements names; it also fails on an entry that starts no
// goroutine now.
func TestGoStatementsOnlyWhereListed(t *testing.T) {
	m := loadModule(t)
	used := map[string]bool{}
	var failures []string
	for _, p := range m.pkgs {
		if top, _, _ := strings.Cut(p.dir, "/"); top != "internal" && top != "heffte" {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				key := p.types.Name() + "." + funcName(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					switch {
					case !ok:
					case goStatements[key]:
						used[key] = true
					default:
						pos := m.fset.Position(g.Pos())
						failures = append(failures, fmt.Sprintf("%s:%d: go statement in %s: run on the caller's goroutine, or list the function in goStatements",
							filepath.ToSlash(pos.Filename), pos.Line, key))
					}
					return true
				})
			}
		}
	}
	for key := range goStatements {
		if !used[key] {
			failures = append(failures, "goStatements names "+key+", which starts no goroutine now: drop the entry")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}
