package repro

import (
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceKeep lists the declarations under internal/ and heffte/ that stay
// although no non-test file references (rule a) or writes (rule b) them, each
// with the reason it stays. Keys are package name, then type, then method or
// field: "topo.Default", "topo.System.Leader", "serve.Request.Decomp".
var surfaceKeep = map[string]string{
	// The paper's equations, waiting for the figure-shape assertions.
	"model.SlabBandwidth":  "the slab bandwidth solved from a measured exchange time",
	"model.CrossoverNodes": "the node count where pencils overtake slabs (Fig. 5)",
	"model.Extrapolate":    "the n^-γ extrapolation the paper offers where the equations fail",

	// Test hooks and references.
	"machine.Model.MsgCost":         "the block-placement price the pricer tests compare against",
	"fft.SetPlanCacheLimit":         "fft plan-cache bound the LRU tests set",
	"fft.PlanCacheLen":              "fft plan-cache size the LRU tests read",
	"mpisim.World.ShrinkWithFaults": "the shrink tests' explicit fault plan",
	"topo.Default":                  "the block-placement System the topology tests build on",
	"topo.System.Leader":            "the node-leader rule the topology tests check",
	"faults.Effect.Zero":            "the no-op predicate the fault tests assert",
	"dft.Inverse":                   "the O(N²) inverse DFT the fft tests compare against",

	// Complete facade enums, aliases, sentinels and presets.
	"heffte.FaultKind":          "alias of the fault kinds; its constants name them",
	"heffte.FaultStall":         "FaultKind constant; the enum stays complete",
	"heffte.FaultJitter":        "FaultKind constant; the enum stays complete",
	"heffte.FaultDegrade":       "FaultKind constant; the enum stays complete",
	"heffte.FaultCorrupt":       "FaultKind constant; the enum stays complete",
	"heffte.Topology":           "alias of a world's resolved topology view (topo.System)",
	"heffte.Backend":            "alias of the exchange backends; its constants name them",
	"heffte.CollectiveAlgo":     "alias of the all-to-all schedules; its constants name them",
	"heffte.OverlapMode":        "alias of the overlap modes; its constants name them",
	"heffte.OverlapAuto":        "OverlapMode constant; the enum stays complete",
	"heffte.OpSum":              "reduce operation for Comm.Allreduce; the enum stays complete",
	"heffte.OpMin":              "reduce operation for Comm.Allreduce; the enum stays complete",
	"heffte.ProcGrid":           "alias of the process grid Config and GridEntry carry",
	"heffte.NewBox":             "facade constructor of Box3",
	"heffte.NewPhantom":         "facade constructor of size-only fields, the payload of paper-scale runs",
	"heffte.NewRealPhantom":     "facade constructor; the real counterpart of NewPhantom",
	"heffte.TableIII":           "facade view of the paper's Table III; LookupTableIII reads it",
	"heffte.ErrMismatchedBoxes": "sentinel error callers match with errors.Is",
	"heffte.ErrPlanClosed":      "sentinel error callers match with errors.Is",
	"heffte.ErrRankFailed":      "sentinel error callers match with errors.Is",
	"heffte.ErrMessageCorrupt":  "sentinel error callers match with errors.Is",
	"heffte.ErrExchangeTimeout": "sentinel error callers match with errors.Is",
	"heffte.ErrIntegrity":       "sentinel error callers match with errors.Is",
	"heffte.ErrShrunk":          "sentinel error callers match with errors.Is",

	// Documented API whose only callers are examples, README and tests.
	"core.RealPlan.HalfGlobal": "shown by the heffte package example",
	"core.Plan.ForwardCtx":     "the facade's cancellation entry point (README)",
	"core.Plan.InverseCtx":     "ForwardCtx's inverse",
	"core.Plan.OutBox":         "where a plan with InBoxes != OutBoxes leaves its output (README)",
	"core.RealPlan.OutBox":     "the half-grid box a RealPlan's output lands in, for callers that allocate it",
	"core.Plan.WireBound":      "the analytic accuracy bound of a compressed wire (README)",

	// Settings kept although no non-test file sets them.
	"plot.Options.Width":      "only the renderer tests draw at other than the default 60 columns",
	"plot.Options.Height":     "only the renderer tests draw at other than the default 16 rows",
	"warpx.Config.Dt":         "only the solver tests step at other than the default Δt",
	"serve.Request.Decomp":    "it names the engine labels that seed the chaos schedules",
	"serve.Config.NoGPUAware": "the benchmark harness reads it to configure its own replay worlds",
}

// TestExportedSurfaceHasCallers type-checks every non-test Go file of the
// module and judges each declaration under internal/ and heffte/ as an
// object, not by its name:
//
//   - (a) every exported package-level func, type, const and var, and every
//     exported method, must be referenced from some non-test file (benchmark/,
//     cmd/ and examples/ count). A method that implements an interface method
//     counts as referenced when that interface method is; String and Error
//     count when the type implements fmt.Stringer or error, which fmt calls.
//   - (b) every exported field of an exported struct type must be written by
//     some non-test file: a composite literal, an assignment, an inc/dec,
//     taking its address, or calling a pointer method on it. Defaulting is
//     not setting: `if o.F <= 0 { o.F = 2 }` — a constant assigned to the
//     field the enclosing if compares with its zero value — is no write.
//
// surfaceKeep names the exceptions.
func TestExportedSurfaceHasCallers(t *testing.T) {
	m := loadModule(t)

	used := map[types.Object]bool{}
	written := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, f := range p.files {
			collectWrites(p.info, f, written)
		}
	}
	// fmt calls String and Error on whatever it prints.
	fmtPkg, err := m.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	stringer := fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
	used[stringer.Method(0)] = true
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	used[errIface.Method(0)] = true
	var calledIfaceMethods []*types.Func
	for obj := range used {
		if f, ok := obj.(*types.Func); ok && isInterfaceMethod(f) {
			calledIfaceMethods = append(calledIfaceMethods, f)
		}
	}
	implementsCalled := func(named *types.Named, meth *types.Func) bool {
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, im := range calledIfaceMethods {
			if im.Name() != meth.Name() {
				continue
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	declared := map[string]bool{}
	var failures []string
	flag := func(key string, obj types.Object, ok bool, what string) {
		declared[key] = true
		switch {
		case ok && surfaceKeep[key] != "":
			failures = append(failures, "surfaceKeep names "+key+", which is "+what+" now: drop the entry")
		case !ok && surfaceKeep[key] == "":
			failures = append(failures, key+" ("+m.fset.Position(obj.Pos()).String()+") is not "+what)
		}
	}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") && !strings.HasPrefix(p.dir, "heffte") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			prefix := p.types.Name() + "." + name
			if obj.Exported() {
				flag(prefix, obj, used[obj], "referenced by a non-test file")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			// Exported methods count on unexported types too.
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				meth := named.Method(i)
				if meth.Exported() {
					flag(prefix+"."+meth.Name(), meth, used[meth] || implementsCalled(named, meth), "referenced by a non-test file")
				}
			}
			if !obj.Exported() {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if meth := u.ExplicitMethod(i); meth.Exported() {
						flag(prefix+"."+meth.Name(), meth, used[meth], "referenced by a non-test file")
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if fld := u.Field(i); fld.Exported() {
						flag(prefix+"."+fld.Name(), fld, written[fld], "written by a non-test file")
					}
				}
			}
		}
	}
	for key := range surfaceKeep {
		if !declared[key] {
			failures = append(failures, "surfaceKeep names "+key+", which is no longer an exported declaration under internal/ or heffte/")
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// origin maps a use of an instantiated generic method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isInterfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// collectWrites records in written every struct field that f writes.
func collectWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	mark := func(v types.Object) {
		if fv, ok := v.(*types.Var); ok && fv.IsField() {
			written[fv.Origin()] = true
		}
	}
	// lvalue marks the fields whose storage a write to e lands in: it walks
	// e's selectors and array indexes down to the first pointer indirection.
	var lvalue func(e ast.Expr)
	lvalue = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.IndexExpr:
				if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
					return
				}
				e = x.X
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				// A promoted field also writes the embedded fields it
				// is reached through.
				typ := sel.Recv()
				for _, idx := range sel.Index() {
					if p, ok := typ.Underlying().(*types.Pointer); ok {
						typ = p.Elem()
					}
					fld := typ.Underlying().(*types.Struct).Field(idx)
					mark(fld)
					typ = fld.Type()
				}
				if sel.Indirect() {
					return
				}
				e = x.X
			default:
				return
			}
		}
	}
	defaults := map[*ast.AssignStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.IfStmt:
			for _, st := range x.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && isDefaulting(info, x.Cond, as) {
					defaults[as] = true
				}
			}
		case *ast.CompositeLit:
			typ := info.TypeOf(x)
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem() // an elided &T{...} element
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(info.Uses[kv.Key.(*ast.Ident)])
				} else {
					mark(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			if defaults[x] {
				break
			}
			for _, lhs := range x.Lhs {
				lvalue(lhs)
			}
		case *ast.IncDecStmt:
			lvalue(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				lvalue(x.X)
			}
		case *ast.CallExpr:
			// A pointer method called on an addressable field takes its
			// address.
			fun, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				break
			}
			sel := info.Selections[fun]
			if sel == nil || sel.Kind() != types.MethodVal {
				break
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if _, isPtr := recv.Type().(*types.Pointer); isPtr {
				if _, already := info.TypeOf(fun.X).Underlying().(*types.Pointer); !already {
					lvalue(fun.X)
				}
			}
		}
		return true
	})
}

// isDefaulting reports whether as, a statement in the body of an if with
// condition cond, defaults a field: it assigns a constant to a field selector
// that cond compares (==, <=) with its zero value, as in
// `if o.F <= 0 { o.F = 2 }`.
func isDefaulting(info *types.Info, cond ast.Expr, as *ast.AssignStmt) bool {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || info.Types[as.Rhs[0]].Value == nil {
		return false
	}
	sel, ok := ast.Unparen(as.Lhs[0]).(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
		return false
	}
	c, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (c.Op != token.EQL && c.Op != token.LEQ) {
		return false
	}
	zero := info.Types[c.Y].Value
	if zero == nil || types.ExprString(c.X) != types.ExprString(sel) {
		return false
	}
	switch zero.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(zero) == 0
	case constant.String:
		return constant.StringVal(zero) == ""
	case constant.Bool:
		return !constant.BoolVal(zero)
	}
	return false
}

type modulePackage struct {
	dir   string // slash path relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type module struct {
	fset *token.FileSet
	pkgs map[string]*modulePackage // by import path
	std  types.Importer            // the standard library, from source
}

// loadModule parses and type-checks every package of the module from its
// non-test files, as the host's build constraints select them. Standard
// library imports are type-checked from source, so the test needs neither
// the network nor compiled export data.
func loadModule(t *testing.T) *module {
	const modPath = "repro"
	fset := token.NewFileSet()
	m := &module{fset: fset, pkgs: map[string]*modulePackage{}, std: importer.ForCompiler(fset, "source", nil)}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(p)
		pkg := &modulePackage{dir: dir}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		m.pkgs[path.Join(modPath, dir)] = pkg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var imp importerFunc
	imp = func(ipath string) (*types.Package, error) {
		pkg, ok := m.pkgs[ipath]
		if !ok {
			return m.std.Import(ipath)
		}
		if pkg.types != nil {
			return pkg.types, nil
		}
		pkg.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(ipath, m.fset, pkg.files, pkg.info)
		pkg.types = tp
		return tp, err
	}
	for ipath := range m.pkgs {
		if _, err := imp(ipath); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
