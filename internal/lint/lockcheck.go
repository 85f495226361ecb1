package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck enforces the mutex discipline the docdb store and the simnet
// engine rely on. It combines the module call graph with a per-function
// must-hold dataflow over the CFG (lockFacts): a mutex counts as held at a
// point only when every path to that point acquired it.
//
// Checks:
//
//  1. Guarded fields. A struct field declared after a sync.Mutex or
//     sync.RWMutex sibling is guarded by it (the standard "mu protects the
//     fields below" layout, e.g. docdb.DB and docdb.Collection). A method
//     that reads or writes a guarded field through its receiver without
//     ever locking, unlocking or deferring the mutex is reported. Methods
//     whose name ends in "Locked" are assumed to be called with the lock
//     held and are exempt; helpers with other calling conventions document
//     themselves with //lint:ignore lockcheck <why>.
//
//  2. Release. A mutex that is locked but never unlocked (nor deferred) in
//     the function is reported at its first Lock, and a return statement at
//     which a mutex is still held, with no deferred unlock for it anywhere
//     in the function, is reported (lock held across return).
//
//  3. The ...Locked hand-off. A call to a ...Locked method must happen with
//     the receiver's mutex held at the call site, or from inside another
//     ...Locked method of the same type on its own receiver.
//
//  4. Self-deadlock: re-acquiring a mutex that is already held
//     (Lock-while-Lock, Lock-while-RLock, RLock-while-Lock; RLock-while-RLock
//     is legal and skipped), calling a non-Locked method that acquires the
//     receiver's own mutex while that mutex is held, and a ...Locked method
//     that locks the very mutex its name promises the caller already holds.
//
//  5. Lock-order cycles: every acquisition of mutex B at a site where mutex
//     A is held adds the edge A->B to a module-wide order graph (keys are
//     type-level: pkg.Type.field for receiver mutexes, pkg.var for package
//     ones); call sites add edges to everything the callee transitively
//     acquires. Edges inside a strongly connected component are reported —
//     two locks taken in both orders on different paths can deadlock.
//
// Because facts are intersected at joins, "held" is never over-claimed;
// sites inside function literals and sites the flow cannot see (a lock
// taken by a caller without the ...Locked marker) are skipped rather than
// guessed.
var LockCheck = &Analyzer{
	Name:           "lockcheck",
	Doc:            "guarded fields accessed without the lock, locks held at a return or never released, the ...Locked hand-off, self-deadlocks and lock-order cycles",
	Severity:       SeverityError,
	NeedsTypes:     true,
	NeedsCallGraph: true,
	Run: func(pass *Pass) {
		for _, f := range pass.Mod.locks().findings[pass.Pkg] {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	},
}

// lockFinding is one pre-computed diagnostic, attributed to the package that
// will emit it (the whole analysis runs once per module, not per package).
type lockFinding struct {
	pos token.Pos
	msg string
}

// lockWorld is the module-wide lock analysis result shared by every
// LockCheck pass.
type lockWorld struct {
	findings map[*Package][]lockFinding
}

// locks returns the lock analysis, building it on first use.
func (m *Module) locks() *lockWorld {
	if m.lockWorld == nil {
		m.lockWorld = buildLockWorld(m)
	}
	return m.lockWorld
}

const (
	modeLock  = "Lock"
	modeRLock = "RLock"
)

// isMutex matches sync.Mutex, sync.RWMutex and pointers to them.
func isMutex(t types.Type) bool {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	n := named.Obj().Name()
	return n == "Mutex" || n == "RWMutex"
}

// mutexOp matches <expr>.Lock/RLock/Unlock/RUnlock on a sync.Mutex or
// sync.RWMutex (or pointer) and returns the mutex expression and method.
func mutexOp(info *types.Info, call *ast.CallExpr) (mu ast.Expr, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	tv, okType := info.Types[sel.X]
	if !okType || !isMutex(tv.Type) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func isAcquire(op string) bool { return op == modeLock || op == modeRLock }

// mutexTypeKey renders a module-unique, type-level identity for a mutex
// expression: "pkg.Type.field" for a struct mutex, "pkg.var" for a package
// variable. Locals and unrecognized shapes return "".
func mutexTypeKey(info *types.Info, mu ast.Expr) string {
	switch x := ast.Unparen(mu).(type) {
	case *ast.SelectorExpr:
		tv, ok := info.Types[x.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
		}
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	}
	return ""
}

// guardOf returns a named struct type's mutex field (its first non-embedded
// sync.Mutex/RWMutex field) and the fields declared after it, which the
// mutex guards. Fields above the mutex are intentionally unguarded
// (immutable configuration goes above the lock by convention).
func guardOf(named *types.Named) (mutex string, guarded map[string]bool) {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return "", nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch {
		case mutex != "":
			guarded[f.Name()] = true
		case !f.Embedded() && isMutex(f.Type()):
			mutex, guarded = f.Name(), make(map[string]bool)
		}
	}
	return mutex, guarded
}

// recvNamed unwraps a method's receiver type to its *types.Named.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// receiverName returns the receiver identifier of a method declaration, or
// "" for functions and unnamed receivers.
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// onReceiver reports whether e is the bare receiver identifier recv.
func onReceiver(e ast.Expr, recv string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && recv != "" && id.Name == recv
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return ""
	}
	return sb.String()
}

// lockFacts builds the FlowSpec tracking which mutex expressions are held.
// Keys are printed expressions ("c.mu"); values are "mode|typeKey" so order
// edges can be derived from held facts.
func lockFacts(fset *token.FileSet, info *types.Info) FlowSpec {
	return FlowSpec{
		Transfer: func(n ast.Node, state Facts) {
			ast.Inspect(n, func(x ast.Node) bool {
				switch c := x.(type) {
				case *ast.FuncLit:
					return false // closure bodies are separate flows
				case *ast.DeferStmt:
					return false // a deferred unlock releases at return, not here
				case *ast.CallExpr:
					mu, op, ok := mutexOp(info, c)
					if !ok {
						return true
					}
					key := exprString(fset, mu)
					if key == "" {
						return true
					}
					if isAcquire(op) {
						state[key] = op + "|" + mutexTypeKey(info, mu)
					} else {
						delete(state, key)
					}
				}
				return true
			})
		},
	}
}

func heldMode(v string) string { return strings.SplitN(v, "|", 2)[0] }
func heldTypeKey(v string) string {
	p := strings.SplitN(v, "|", 2)
	if len(p) == 2 {
		return p[1]
	}
	return ""
}

// orderEdge is one "to acquired while from held" observation.
type orderEdge struct {
	from, to string
	pos      token.Pos
	pkg      *Package
}

func buildLockWorld(m *Module) *lockWorld {
	w := &lockWorld{findings: make(map[*Package][]lockFinding)}
	g := m.Graph()
	nodes := g.Nodes()

	// Pass 1: per-function direct acquisitions (type-level) and whether the
	// function locks its own receiver's mutex, plus same-receiver callees
	// for the acquiresOwn closure.
	directKeys := make(map[*types.Func]map[string]bool)
	directOwn := make(map[*types.Func]bool)
	selfCallees := make(map[*types.Func][]*types.Func)
	for _, node := range nodes {
		info := node.Pkg.Info
		recvName := receiverName(node.Decl)
		keys := make(map[string]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			mu, op, ok := mutexOp(info, call)
			if !ok || !isAcquire(op) {
				return true
			}
			if tk := mutexTypeKey(info, mu); tk != "" {
				keys[tk] = true
			}
			if sel, ok := ast.Unparen(mu).(*ast.SelectorExpr); ok && onReceiver(sel.X, recvName) {
				directOwn[node.Fn] = true
			}
			return true
		})
		directKeys[node.Fn] = keys
		if myType := recvNamed(node.Fn); myType != nil {
			for _, e := range node.Out {
				if e.Dynamic || recvNamed(e.Callee) != myType {
					continue
				}
				if sel, ok := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr); ok && onReceiver(sel.X, recvName) {
					selfCallees[node.Fn] = append(selfCallees[node.Fn], e.Callee)
				}
			}
		}
	}

	// Pass 2: transitive closures. acquiresAll[fn] is every type-level key
	// fn may acquire through static calls; acquiresOwn[fn] is whether fn
	// locks its own receiver's mutex, directly or through same-receiver
	// calls.
	acquiresAll := make(map[*types.Func]map[string]bool, len(nodes))
	for _, node := range nodes {
		set := make(map[string]bool, len(directKeys[node.Fn]))
		for k := range directKeys[node.Fn] {
			set[k] = true
		}
		acquiresAll[node.Fn] = set
	}
	acquiresOwn := make(map[*types.Func]bool, len(nodes))
	for fn, own := range directOwn {
		acquiresOwn[fn] = own
	}
	for changed := true; changed; {
		changed = false
		for _, node := range nodes {
			mine := acquiresAll[node.Fn]
			for _, e := range node.Out {
				for k := range acquiresAll[e.Callee] {
					if !mine[k] {
						mine[k] = true
						changed = true
					}
				}
			}
			if !acquiresOwn[node.Fn] {
				for _, callee := range selfCallees[node.Fn] {
					if acquiresOwn[callee] {
						acquiresOwn[node.Fn] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: per-function checks and order-edge collection.
	var edges []orderEdge
	edgeSeen := make(map[[2]string]bool)
	for _, node := range nodes {
		edges = append(edges, checkFunction(m, w, node, acquiresAll, acquiresOwn, directOwn, edgeSeen)...)
	}

	// Pass 4: cycle detection over the type-level order graph.
	reportOrderCycles(w, edges)
	return w
}

// checkFunction runs the held-lock dataflow over one function and emits its
// guarded-field, release, Locked-convention and self-deadlock findings,
// returning the order edges its acquire/call sites contribute.
func checkFunction(m *Module, w *lockWorld, node *CallNode,
	acquiresAll map[*types.Func]map[string]bool, acquiresOwn, directOwn map[*types.Func]bool,
	edgeSeen map[[2]string]bool) []orderEdge {

	info := node.Pkg.Info
	spec := lockFacts(m.Fset, info)
	cfg := NewCFG(node.Decl.Body)
	entry := cfg.Forward(spec)
	heldAt := func(n ast.Node) Facts { return cfg.FactsAt(spec, entry, n) }

	recvName := receiverName(node.Decl)
	enclosingLocked := strings.HasSuffix(node.Fn.Name(), "Locked")
	myRecv := recvNamed(node.Fn)

	report := func(pos token.Pos, format string, args ...any) {
		w.findings[node.Pkg] = append(w.findings[node.Pkg], lockFinding{pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	if myRecv != nil && !enclosingLocked {
		checkGuardedAccess(node.Decl, myRecv, report)
	}
	checkRelease(m.Fset, info, node.Decl, heldAt, report)

	var edges []orderEdge
	addEdges := func(held Facts, toKey string, pos token.Pos) {
		if toKey == "" {
			return
		}
		for _, v := range held {
			from := heldTypeKey(v)
			if from == "" || from == toKey {
				continue
			}
			if !edgeSeen[[2]string{from, toKey}] {
				edgeSeen[[2]string{from, toKey}] = true
				edges = append(edges, orderEdge{from: from, to: toKey, pos: pos, pkg: node.Pkg})
			}
		}
	}

	// Direct acquire sites: self-deadlock re-acquisition, Locked-method
	// self-lock, and order edges.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		mu, op, ok := mutexOp(info, call)
		if !ok || !isAcquire(op) {
			return true
		}
		key := exprString(m.Fset, mu)
		held := heldAt(call)
		if held == nil {
			return true // inside a closure or unreachable: no flow facts
		}
		if prev, already := held[key]; already {
			prevMode := heldMode(prev)
			if op == modeLock || prevMode == modeLock {
				report(call.Pos(), "%s.%s() while %s is already held (%s at this point on every path) — self-deadlock", key, op, key, prevMode)
			}
		}
		if enclosingLocked && directOwn[node.Fn] {
			if sel, isSel := ast.Unparen(mu).(*ast.SelectorExpr); isSel && onReceiver(sel.X, recvName) {
				report(call.Pos(), "%s acquires %s, the mutex its ...Locked name promises the caller already holds", node.Fn.Name(), key)
			}
		}
		addEdges(held, mutexTypeKey(info, mu), call.Pos())
		return true
	})

	// Call sites, via the resolved graph edges.
	for _, e := range node.Out {
		held := heldAt(e.Site)
		if held == nil {
			continue
		}
		calleeRecv := recvNamed(e.Callee)
		if !e.Dynamic && calleeRecv != nil {
			field, _ := guardOf(calleeRecv)
			sel, isSel := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr)
			if field != "" && isSel {
				requiredKey := exprString(m.Fset, sel.X) + "." + field
				_, haveLock := held[requiredKey]
				if strings.HasSuffix(e.Callee.Name(), "Locked") {
					// Hand-off case: a Locked method of the same type may
					// forward to a sibling Locked method on its receiver.
					handoff := enclosingLocked && onReceiver(sel.X, recvName) && calleeRecv == myRecv
					if !haveLock && !handoff {
						report(e.Site.Pos(), "call to %s.%s without %s held — ...Locked methods require the caller to hold the receiver's mutex",
							calleeRecv.Obj().Name(), e.Callee.Name(), requiredKey)
					}
				} else if haveLock && acquiresOwn[e.Callee] {
					report(e.Site.Pos(), "calling %s.%s while %s is held — the callee acquires that mutex itself (self-deadlock)",
						calleeRecv.Obj().Name(), e.Callee.Name(), requiredKey)
				}
			}
		}
		// Any held lock orders before everything the callee may acquire.
		for to := range acquiresAll[e.Callee] {
			addEdges(held, to, e.Site.Pos())
		}
	}
	return edges
}

// checkGuardedAccess reports a method that touches a guarded field of its
// receiver without using the struct's mutex at all.
func checkGuardedAccess(fd *ast.FuncDecl, recv *types.Named, report func(token.Pos, string, ...any)) {
	recvName := receiverName(fd)
	mutex, guarded := guardOf(recv)
	if recvName == "" || len(guarded) == 0 {
		return
	}
	usesMutex := false
	var firstAccess *ast.SelectorExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, isSel := n.(*ast.SelectorExpr)
		if !isSel || !onReceiver(sel.X, recvName) {
			return true
		}
		if sel.Sel.Name == mutex {
			usesMutex = true
		}
		if guarded[sel.Sel.Name] && firstAccess == nil {
			firstAccess = sel
		}
		return true
	})
	if firstAccess != nil && !usesMutex {
		report(firstAccess.Pos(),
			"%s.%s accesses %s.%s (guarded by %s.%s) without locking; lock the mutex, rename the method to ...Locked, or document the calling convention with //lint:ignore",
			recv.Obj().Name(), fd.Name.Name, recvName, firstAccess.Sel.Name, recvName, mutex)
	}
}

// checkRelease reports mutexes the function locks but never unlocks, and
// return statements at which a mutex is still held on every path while no
// deferred unlock will release it.
func checkRelease(fset *token.FileSet, info *types.Info, fd *ast.FuncDecl, heldAt func(ast.Node) Facts, report func(token.Pos, string, ...any)) {
	locks := make(map[string][]token.Pos) // acquire sites per mutex, in source order
	unlocked := make(map[string]bool)
	deferred := make(map[string]bool)
	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // separate scope: a closure locks and unlocks on its own
		case *ast.ReturnStmt:
			returns = append(returns, s)
		case *ast.DeferStmt:
			// defer mu.Unlock(), or a deferred closure that unlocks.
			ast.Inspect(s.Call, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if mu, op, ok := mutexOp(info, call); ok && !isAcquire(op) {
						deferred[exprString(fset, mu)] = true
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			if mu, op, ok := mutexOp(info, s); ok {
				key := exprString(fset, mu)
				if isAcquire(op) {
					locks[key] = append(locks[key], s.Pos())
				} else {
					unlocked[key] = true
				}
			}
		}
		return true
	})
	keys := make([]string, 0, len(locks))
	for key := range locks {
		if !deferred[key] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !unlocked[key] {
			report(locks[key][0], "%s is locked but never unlocked in %s; add defer %s.Unlock()", key, fd.Name.Name, key)
		}
	}
	for _, ret := range returns {
		held := heldAt(ret)
		for _, key := range keys {
			if _, isHeld := held[key]; !isHeld || !unlocked[key] {
				continue
			}
			lock := locks[key][0]
			for _, p := range locks[key] {
				if p < ret.Pos() {
					lock = p
				}
			}
			report(ret.Pos(), "return while %s is still locked (locked at line %d without defer)", key, fset.Position(lock).Line)
		}
	}
}

// reportOrderCycles finds strongly connected components of the type-level
// order graph and reports every edge inside one.
func reportOrderCycles(w *lockWorld, edges []orderEdge) {
	adj := make(map[string][]string)
	keys := make(map[string]bool)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		keys[e.from], keys[e.to] = true, true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)

	// Tarjan's SCC, recursive: lock graphs are small.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	counter, compID := 0, 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		succs := append([]string(nil), adj[v]...)
		sort.Strings(succs)
		for _, to := range succs {
			if _, seen := index[to]; !seen {
				strongconnect(to)
				if low[to] < low[v] {
					low[v] = low[to]
				}
			} else if onStack[to] && index[to] < low[v] {
				low[v] = index[to]
			}
		}
		if low[v] == index[v] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp[top] = compID
				if top == v {
					break
				}
			}
			compID++
		}
	}
	for _, v := range names {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	compSize := make(map[int]int)
	for _, c := range comp {
		compSize[c]++
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		if comp[e.from] == comp[e.to] && compSize[comp[e.from]] > 1 {
			w.findings[e.pkg] = append(w.findings[e.pkg], lockFinding{
				pos: e.pos,
				msg: fmt.Sprintf("lock order cycle: %s acquired while %s is held, but the reverse order also occurs — potential deadlock", e.to, e.from),
			})
		}
	}
}
