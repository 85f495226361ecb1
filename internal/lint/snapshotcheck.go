package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotCheck enforces the copy-on-write discipline the selection engine's
// lock-free serving depends on: a type published through atomic.Pointer[T]
// is frozen — readers hold the stored pointer without a lock, so any field
// write that can reach a stored value is a data race, invisible to the race
// detector until two goroutines actually collide.
//
// The frozen set is computed module-wide: every T that is the type argument
// of an atomic.Pointer[T] on which Store/Swap/CompareAndSwap is called. A
// field write whose base expression has a frozen type is then only allowed
// when the base provably refers to a fresh, not-yet-published value: a
// composite literal (&T{...} / T{...}), new(T), a dereference copy
// (x := *p — the copy is new memory), or a local variable assigned only
// from such expressions. Everything else — a Load() result, a function
// return value, a parameter, a struct field — may alias the published
// value and is reported. COW helpers therefore mutate the fresh clone they
// build and return it; callers that own a private pre-publication value can
// say so with //lint:ignore snapshotcheck <why>.
var SnapshotCheck = &Analyzer{
	Name:       "snapshotcheck",
	Doc:        "field writes to types published via atomic.Pointer[T] that may alias the stored (frozen) value",
	Severity:   SeverityError,
	NeedsTypes: true,
	Run:        runSnapshotCheck,
}

// FrozenTypes returns the named types published through atomic.Pointer[T]
// anywhere in the module, mapped to one publication site. Built once per
// run.
func (m *Module) FrozenTypes() map[*types.Named]token.Pos {
	if m.frozen == nil {
		m.frozen = make(map[*types.Named]token.Pos)
		for _, pkg := range m.Pkgs {
			if pkg.Info == nil {
				continue
			}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					switch sel.Sel.Name {
					case "Store", "Swap", "CompareAndSwap":
					default:
						return true
					}
					tv, ok := pkg.Info.Types[sel.X]
					if !ok {
						return true
					}
					t := tv.Type
					if ptr, isPtr := t.(*types.Pointer); isPtr {
						t = ptr.Elem()
					}
					named, ok := t.(*types.Named)
					if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync/atomic" || named.Obj().Name() != "Pointer" {
						return true
					}
					targs := named.TypeArgs()
					if targs == nil || targs.Len() != 1 {
						return true
					}
					if elem, ok := targs.At(0).(*types.Named); ok {
						if _, seen := m.frozen[elem]; !seen {
							m.frozen[elem] = call.Pos()
						}
					}
					return true
				})
			}
		}
	}
	return m.frozen
}

// frozenNamedOf returns the frozen named type of t (directly or behind one
// pointer), or nil.
func frozenNamedOf(frozen map[*types.Named]token.Pos, t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, isFrozen := frozen[named]; isFrozen {
		return named
	}
	return nil
}

func runSnapshotCheck(pass *Pass) {
	frozen := pass.Mod.FrozenTypes()
	if len(frozen) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFrozenWrites(pass, info, frozen, fd)
		}
	}
}

// checkFrozenWrites flags writes to frozen-typed values inside one function.
func checkFrozenWrites(pass *Pass, info *types.Info, frozen map[*types.Named]token.Pos, fd *ast.FuncDecl) {
	fresh := freshLocals(info, frozen, fd)
	flag := func(lhs ast.Expr) {
		named, base := frozenWriteBase(info, frozen, lhs)
		if named == nil {
			return
		}
		if baseIsFresh(info, fresh, base) {
			return
		}
		pass.Reportf(lhs.Pos(),
			"write to a field of %s, which is published via atomic.Pointer and frozen after Store; build a fresh copy (COW) and Store that instead",
			named.Obj().Name())
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				flag(lhs)
			}
		case *ast.IncDecStmt:
			flag(st.X)
		}
		return true
	})
}

// frozenWriteBase inspects an assignment LHS and, when it writes through a
// field of a frozen type, returns that type and the base expression the
// write goes through (x in x.f, x.f[i], x.f.g ...). Index and selector
// layers are unwound so writes reaching the frozen value through slices,
// arrays and nested structs are caught; map-element writes on a fresh map
// value are indistinguishable from slice writes here and stay conservative.
func frozenWriteBase(info *types.Info, frozen map[*types.Named]token.Pos, lhs ast.Expr) (*types.Named, ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			// Only field selections count; a method expression can't be
			// assigned to anyway.
			if tv, ok := info.Types[x.X]; ok {
				if named := frozenNamedOf(frozen, tv.Type); named != nil {
					return named, x.X
				}
			}
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			return nil, nil
		}
	}
}

// freshLocals computes the function's local objects of frozen (or pointer to
// frozen) type that only ever hold fresh, unpublished values. Freshness
// sources: composite literals, new(T), dereference copies, and other fresh
// locals. Any assignment from a call result, parameter, field or other
// escape-prone expression disqualifies the object entirely (flow-insensitive
// must-analysis).
func freshLocals(info *types.Info, frozen map[*types.Named]token.Pos, fd *ast.FuncDecl) map[types.Object]bool {
	// Collect every (object, rhs) assignment pair for frozen-typed locals;
	// nil rhs (bare var decl) is fresh — the zero value is new memory.
	type binding struct {
		obj types.Object
		rhs ast.Expr
	}
	var bindings []binding
	tainted := make(map[types.Object]bool)
	addBinding := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil || id.Name == "_" {
			return
		}
		if frozenNamedOf(frozen, obj.Type()) == nil {
			return
		}
		bindings = append(bindings, binding{obj: obj, rhs: rhs})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					if id, ok := st.Lhs[i].(*ast.Ident); ok {
						addBinding(id, st.Rhs[i])
					}
				}
			} else {
				// Multi-value unpacking (x, err := f()): call results, never
				// fresh.
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.ObjectOf(id); obj != nil {
							tainted[obj] = true
						}
					}
				}
			}
		case *ast.GenDecl:
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					addBinding(name, rhs)
				}
			}
		case *ast.RangeStmt:
			// Range variables alias elements of the ranged collection.
			for _, v := range []ast.Expr{st.Key, st.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					if obj := info.ObjectOf(id); obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})

	// Fixpoint: an object is fresh iff it is not tainted and every binding's
	// rhs is a fresh expression.
	fresh := make(map[types.Object]bool)
	seen := make(map[types.Object]bool)
	for _, b := range bindings {
		if !seen[b.obj] && !tainted[b.obj] {
			fresh[b.obj] = true
		}
		seen[b.obj] = true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range bindings {
			if !fresh[b.obj] {
				continue
			}
			if !freshExpr(info, fresh, b.rhs) {
				delete(fresh, b.obj)
				changed = true
			}
		}
	}
	return fresh
}

// freshExpr reports whether e is guaranteed to produce new, unpublished
// memory (or copies of it). nil means a zero-valued var declaration.
func freshExpr(info *types.Info, fresh map[types.Object]bool, e ast.Expr) bool {
	if e == nil {
		return true
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.StarExpr:
		return true // a dereference copy is new memory
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "new" {
			if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.Ident:
		if x.Name == "nil" {
			return true
		}
		if obj := info.ObjectOf(x); obj != nil {
			return fresh[obj]
		}
	}
	return false
}

// baseIsFresh decides whether the base expression of a frozen-field write
// refers to fresh memory.
func baseIsFresh(info *types.Info, fresh map[types.Object]bool, base ast.Expr) bool {
	switch x := ast.Unparen(base).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(x); obj != nil {
			return fresh[obj]
		}
	case *ast.StarExpr:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				return fresh[obj]
			}
		}
	case *ast.CompositeLit:
		return true
	}
	return false
}
