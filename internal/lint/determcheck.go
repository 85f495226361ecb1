package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetermCheck enforces the reproducibility contract that the simulation,
// chaos-plan derivation and measurement-cell execution depend on: a function
// reachable (through the module call graph) from a deterministic root must
// not consult the wall clock, the process environment, or the globally
// seeded math/rand source, and must not let map iteration order escape into
// accumulated output. Seeded *rand.Rand values and the simulated clock are
// the sanctioned alternatives.
//
// Roots are declared in source with the //lint:deterministic directive:
// placed in a function's doc comment it marks that one function; placed
// anywhere else in a file (conventionally the package doc) it marks every
// function of the package. Diagnostics name the root whose closure reached
// the offending call, so a finding deep in a shared helper is traceable.
//
// The map-order check is a heuristic: ranging over a map while appending to
// a slice (or concatenating to a string) declared outside the loop is
// flagged unless the accumulator is passed to a sort/slices call later in
// the same function. Order-insensitive folds (sums, set inserts) are not
// flagged; callers that sort later than the heuristic can see document it
// with //lint:ignore determcheck <why>.
var DetermCheck = &Analyzer{
	Name:           "determcheck",
	Doc:            "wall-clock, global rand, env reads and map-order leaks reachable from //lint:deterministic roots",
	Severity:       SeverityError,
	NeedsTypes:     true,
	NeedsCallGraph: true,
	Run:            runDetermCheck,
}

// determForbidden maps the full name of a banned callee to the reason it
// breaks determinism. *rand.Rand methods are absent on purpose: a seeded
// source is the sanctioned replacement.
var determForbidden = map[string]string{
	"time.Now":       "reads the wall clock",
	"time.Since":     "reads the wall clock",
	"time.Until":     "reads the wall clock",
	"os.Getenv":      "reads the process environment",
	"os.LookupEnv":   "reads the process environment",
	"os.Environ":     "reads the process environment",
	"os.Hostname":    "reads host identity",
	"runtime.NumCPU": "depends on the host CPU count",
}

func init() {
	// Package-level math/rand functions share the process-global source;
	// their *rand.Rand method counterparts are fine.
	for _, name := range []string{
		"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n", "Uint32",
		"Uint64", "Float32", "Float64", "ExpFloat64", "NormFloat64",
		"Perm", "Shuffle", "Seed", "Read",
	} {
		determForbidden["math/rand."+name] = "uses the global math/rand source"
	}
}

// DeterministicWitness returns, for every function reachable from a
// //lint:deterministic root, the root that reaches it. Built once per run.
func (m *Module) DeterministicWitness() map[*types.Func]*types.Func {
	if m.detWitness == nil {
		var roots []*types.Func
		for _, pkg := range m.Pkgs {
			if pkg.Info == nil {
				continue
			}
			roots = append(roots, deterministicRoots(m.Fset, pkg)...)
		}
		m.detWitness = m.Graph().Reachable(roots)
	}
	return m.detWitness
}

// deterministicRoots finds the functions a package's //lint:deterministic
// directives declare: the annotated function when the directive sits in a
// function's doc comment, every function in the package otherwise.
func deterministicRoots(fset *token.FileSet, pkg *Package) []*types.Func {
	var roots []*types.Func
	packageWide := false
	for _, f := range pkg.Files {
		// Map "line a comment group ends on" -> func decl starting on the
		// next line, the same attachment rule ignore directives use.
		funcAfterLine := make(map[int]*ast.FuncDecl)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				funcAfterLine[fset.Position(fd.Pos()).Line-1] = fd
			}
		}
		for _, cg := range f.Comments {
			directive := false
			for _, c := range cg.List {
				if _, ok := parseDeterministic(c.Text); ok {
					directive = true
					break
				}
			}
			if !directive {
				continue
			}
			groupEnd := fset.Position(cg.End()).Line
			if fd, ok := funcAfterLine[groupEnd]; ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, fn)
					continue
				}
			}
			packageWide = true
		}
	}
	if packageWide {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					roots = append(roots, fn)
				}
			}
		}
	}
	return roots
}

func runDetermCheck(pass *Pass) {
	witness := pass.Mod.DeterministicWitness()
	if len(witness) == 0 {
		return
	}
	for _, node := range pass.Mod.Graph().Nodes() {
		if node.Pkg != pass.Pkg {
			continue
		}
		root, reachable := witness[node.Fn]
		if !reachable {
			continue
		}
		for _, e := range node.Out {
			why, banned := determForbidden[e.Callee.FullName()]
			if !banned {
				continue
			}
			if fix, ok := seededRandFix(pass, node.Decl, e); ok {
				pass.ReportfFix(fix.pos, fix.end, fix.text,
					"%s %s in deterministic code (reachable from %s); use the seeded *rand.Rand %q in scope",
					e.Callee.FullName(), why, witnessName(root, node.Fn), fix.text)
				continue
			}
			pass.Reportf(e.Site.Pos(),
				"%s %s in deterministic code (reachable from %s); thread a seeded source or the sim clock instead",
				e.Callee.FullName(), why, witnessName(root, node.Fn))
		}
		checkMapOrderEscape(pass, node, root)
	}
}

// witnessName renders the root for a diagnostic; a function that is its own
// witness is reported as "itself, a declared root".
func witnessName(root, fn *types.Func) string {
	if root == fn {
		return "itself, a declared root"
	}
	return "root " + root.FullName()
}

type randFix struct {
	pos, end token.Pos
	text     string
}

// seededRandFix builds the mechanical rewrite for a global math/rand call
// when the enclosing function already has exactly one *math/rand.Rand
// parameter: replace the package qualifier with the parameter name
// (rand.Intn(n) -> rng.Intn(n) — every banned global has a same-name method).
func seededRandFix(pass *Pass, fd *ast.FuncDecl, e CallEdge) (randFix, bool) {
	if e.Callee.Pkg() == nil || e.Callee.Pkg().Path() != "math/rand" {
		return randFix{}, false
	}
	sel, ok := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr)
	if !ok {
		return randFix{}, false
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return randFix{}, false
	}
	if _, isPkg := pass.Pkg.Info.Uses[qual].(*types.PkgName); !isPkg {
		return randFix{}, false
	}
	var candidates []string
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.Pkg.Info.Defs[name]
				if obj != nil && isRandRandPtr(obj.Type()) {
					candidates = append(candidates, name.Name)
				}
			}
		}
	}
	if len(candidates) != 1 {
		return randFix{}, false
	}
	return randFix{pos: qual.Pos(), end: qual.End(), text: candidates[0]}, true
}

func isRandRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "math/rand" && named.Obj().Name() == "Rand"
}

// checkMapOrderEscape flags map ranges whose iteration order leaks into an
// accumulator declared outside the loop, unless the accumulator is sorted
// later in the same function.
func checkMapOrderEscape(pass *Pass, node *CallNode, root *types.Func) {
	info := pass.Pkg.Info
	body := node.Decl.Body
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		target := mapEscapeTarget(info, rng)
		if target == nil || sortedAfter(info, body, rng, target) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"map iteration order escapes into %q in deterministic code (reachable from %s); range over sorted keys or sort the result",
			target.Name(), witnessName(root, node.Fn))
		return true
	})
}

// mapEscapeTarget finds an order-sensitive accumulator written inside the
// range body: a slice appended to, or a string concatenated to, that was
// declared before the range statement. Commutative folds (numeric +=, map
// and set inserts) are deliberately not matched.
func mapEscapeTarget(info *types.Info, rng *ast.RangeStmt) types.Object {
	var target types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if target != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil || !obj.Pos().IsValid() {
			return true
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return true // declared inside the loop: order cannot escape
		}
		switch as.Tok {
		case token.ADD_ASSIGN:
			if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				target = obj
			}
		case token.ASSIGN:
			if appendsTo(info, as.Rhs[0], obj) {
				target = obj
			}
		}
		return true
	})
	return target
}

// appendsTo matches "x = append(x, ...)" shapes (possibly nested in other
// expressions) for the given accumulator object.
func appendsTo(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) == 0 {
			return true
		}
		if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && info.ObjectOf(first) == obj {
			found = true
		}
		return true
	})
	return found
}

// sortedAfter reports whether the accumulator is passed to a sort or slices
// package call positioned after the range statement.
func sortedAfter(info *types.Info, body *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		qual, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := info.Uses[qual].(*types.PkgName)
		if !ok {
			return true
		}
		if path := pkgName.Imported().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == target {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
