package repro

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"testing"
)

// backendSwitches lists the only places a core.Backend value may be compared
// or switched on: the backend table's file, and exchange.post's transport
// dispatch, where a table row becomes an MPI routine. Everything else reads
// the backend's Capabilities row. (fftsim's flag parsing maps names to
// backends without comparing any.) A key is a slash path, alone for the whole
// file or followed by ":" and a function ("Type.method" for a method).
var backendSwitches = map[string]bool{
	"internal/core/backends.go":               true,
	"internal/core/exchange.go:exchange.post": true,
}

// TestBackendsReadThroughTheTable type-checks every non-test Go file of the
// module and fails on each comparison (==, !=, <, <=, >, >=) with a
// core.Backend operand and each switch on a core.Backend tag outside
// backendSwitches; it also fails on an entry that covers none now.
func TestBackendsReadThroughTheTable(t *testing.T) {
	m := loadModule(t)
	backend := m.pkgs["repro/internal/core"].types.Scope().Lookup("Backend").Type()

	used := map[string]bool{}
	var failures []string
	for _, p := range m.pkgs {
		isBackend := func(e ast.Expr) bool {
			tv, ok := p.info.Types[e]
			return ok && types.Identical(tv.Type, backend)
		}
		for _, f := range p.files {
			file := filepath.ToSlash(m.fset.Position(f.Pos()).Filename)
			for _, decl := range f.Decls {
				key := file + ":" + funcName(decl)
				if backendSwitches[file] {
					key = file
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					var at token.Pos
					switch x := n.(type) {
					case *ast.BinaryExpr:
						if isComparison(x.Op) && (isBackend(x.X) || isBackend(x.Y)) {
							at = x.Pos()
						}
					case *ast.SwitchStmt:
						if x.Tag != nil && isBackend(x.Tag) {
							at = x.Pos()
						}
					}
					switch {
					case !at.IsValid():
					case backendSwitches[key]:
						used[key] = true
					default:
						pos := m.fset.Position(at)
						failures = append(failures, fmt.Sprintf("%s:%d: compares or switches on a core.Backend: read its Capabilities() row instead",
							filepath.ToSlash(pos.Filename), pos.Line))
					}
					return true
				})
			}
		}
	}
	for key := range backendSwitches {
		if !used[key] {
			failures = append(failures, "backendSwitches names "+key+", which compares no core.Backend now: drop the entry")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// funcName names a declaration as backendSwitches does: "f" for a function,
// "T.m" for a method, "" for anything else.
func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch x := recv.(type) {
	case *ast.IndexExpr: // a generic receiver, T[P]
		recv = x.X
	case *ast.IndexListExpr:
		recv = x.X
	}
	return types.ExprString(recv) + "." + fd.Name.Name
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}
