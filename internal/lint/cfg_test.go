package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// cfgFunc parses src (a full file) and returns the named function's decl.
func cfgFunc(t *testing.T, src, name string) *ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// findCall locates the call to the named function inside body.
func findCall(t *testing.T, body *ast.BlockStmt, callee string) *ast.CallExpr {
	t.Helper()
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == callee && found == nil {
			found = call
		}
		return true
	})
	if found == nil {
		t.Fatalf("call to %s not found", callee)
	}
	return found
}

// assignSpec records `name := "lit"` / `name = "lit"` string assignments
// syntactically — enough to observe the must-join semantics without types.
var assignSpec = FlowSpec{Transfer: func(n ast.Node, s Facts) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		as, ok := x.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if lit, ok := as.Rhs[0].(*ast.BasicLit); ok {
			s[id.Name] = lit.Value
		}
		return true
	})
}}

const cfgJoinSrc = `package p

func f(c bool) {
	x := "1"
	if c {
		y := "2"
		_ = y
	} else {
		y := "3"
		_ = y
	}
	mid()
	if c {
		z := "4"
		_ = z
	}
	after()
	fn := func() {
		w := "5"
		_ = w
		inner()
	}
	fn()
	end()
}
`

// The forward driver is a must-analysis: facts that disagree across join
// predecessors (or exist on only some paths) are dropped.
func TestCFGForwardMustJoin(t *testing.T) {
	fd := cfgFunc(t, cfgJoinSrc, "f")
	cfg := NewCFG(fd.Body)
	entry := cfg.Forward(assignSpec)

	at := func(callee string) Facts {
		return cfg.FactsAt(assignSpec, entry, findCall(t, fd.Body, callee))
	}

	mid := at("mid")
	if mid == nil {
		t.Fatal("no facts at mid()")
	}
	if mid["x"] != `"1"` {
		t.Errorf(`x at mid() = %q, want "1" (straight-line fact)`, mid["x"])
	}
	if v, ok := mid["y"]; ok {
		t.Errorf("y survived the join with disagreeing values: %q", v)
	}

	after := at("after")
	if _, ok := after["z"]; ok {
		t.Error("z set on only one branch survived the must-join")
	}
	if after["x"] != `"1"` {
		t.Error("x lost crossing an if with no reassignment")
	}

	end := at("end")
	if _, ok := end["w"]; ok {
		t.Error("assignment inside a func literal leaked into the enclosing flow")
	}
}

// Nodes inside a function literal belong to no block of the enclosing CFG:
// FactsAt must return nil rather than facts from the wrong function.
func TestCFGFactsInsideFuncLitAreNil(t *testing.T) {
	fd := cfgFunc(t, cfgJoinSrc, "f")
	cfg := NewCFG(fd.Body)
	entry := cfg.Forward(assignSpec)
	if facts := cfg.FactsAt(assignSpec, entry, findCall(t, fd.Body, "inner")); facts != nil {
		t.Errorf("FactsAt inside a closure = %v, want nil", facts)
	}
}

const cfgPanicSrc = `package p

func g(c bool) {
	a := "1"
	if c {
		a = "2"
		panic("boom")
	}
	tail()
}
`

// A panicking block terminates: its facts must not flow into the join, so
// the pre-branch value survives.
func TestCFGPanicTerminatesBlock(t *testing.T) {
	fd := cfgFunc(t, cfgPanicSrc, "g")
	cfg := NewCFG(fd.Body)
	entry := cfg.Forward(assignSpec)
	facts := cfg.FactsAt(assignSpec, entry, findCall(t, fd.Body, "tail"))
	if facts == nil {
		t.Fatal("no facts at tail()")
	}
	if facts["a"] != `"1"` {
		t.Errorf(`a at tail() = %q, want "1" — the panicking branch must not join`, facts["a"])
	}
}

const cfgSwitchSrc = `package p

func h(n int, ch chan string) {
	a := "1"
	switch n {
	case 0:
		fallthrough
	case 1:
		a = "2"
		b := "9"
		_ = b
	default:
		a = "2"
	}
	mid()
	select {
	case s := <-ch:
		_ = s
	default:
	}
	after()
Loop:
	for i := 0; i < n; i++ {
		switch n {
		case 0:
			break Loop
		case 1:
			continue Loop
		}
		a = "3"
	}
	end()
}
`

// Switch dispatch joins every clause (with fallthrough wiring), select
// always admits the skip edge, and labeled break/continue resolve through
// the frame stack to the labeled loop rather than the inner switch.
func TestCFGSwitchSelectAndLabeledBranches(t *testing.T) {
	fd := cfgFunc(t, cfgSwitchSrc, "h")
	cfg := NewCFG(fd.Body)
	entry := cfg.Forward(assignSpec)

	at := func(callee string) Facts {
		return cfg.FactsAt(assignSpec, entry, findCall(t, fd.Body, callee))
	}

	// Every switch path sets a="2" — case 0 only via its fallthrough into
	// case 1 — so the must-join keeps it; b exists on only some clauses
	// and is dropped.
	mid := at("mid")
	if mid == nil {
		t.Fatal("no facts at mid()")
	}
	if mid["a"] != `"2"` {
		t.Errorf(`a at mid() = %q, want "2" (all clauses agree, incl. fallthrough)`, mid["a"])
	}
	if _, ok := mid["b"]; ok {
		t.Error("clause-local b leaked through the switch join")
	}

	// A select may skip every clause, so nothing new is guaranteed after it.
	if after := at("after"); after["a"] != `"2"` {
		t.Errorf(`a at after() = %q, want "2" (select must not drop it)`, after["a"])
	}

	// The labeled loop exits with a="2" (zero iterations, break Loop,
	// continue Loop skipping the tail) on some paths and a="3" on others:
	// the disagreement must drop a — if labeled break/continue resolved to
	// the inner switch instead of the loop, a="3" would wrongly dominate.
	if end := at("end"); end == nil {
		t.Fatal("no facts at end()")
	} else if v, ok := end["a"]; ok {
		t.Errorf(`a at end() = %q, want dropped (paths disagree)`, v)
	}
}

const cfgGotoSrc = `package p

func k(c bool) {
	a := "1"
	if c {
		goto Done
	}
	a = "2"
	mid()
Done:
	tail()
	_ = a
}
`

// goto conservatively exits the function in this CFG (documented
// approximation): facts after the label must not pretend the jump landed
// there, and straight-line facts before it survive.
func TestCFGGotoApproximation(t *testing.T) {
	fd := cfgFunc(t, cfgGotoSrc, "k")
	cfg := NewCFG(fd.Body)
	entry := cfg.Forward(assignSpec)
	facts := cfg.FactsAt(assignSpec, entry, findCall(t, fd.Body, "mid"))
	if facts == nil {
		t.Fatal("no facts at mid()")
	}
	if facts["a"] != `"2"` {
		t.Errorf(`a at mid() = %q, want "2"`, facts["a"])
	}
	// The label is a join of the goto (treated as exit) and fall-through:
	// the fall-through path must still reach tail().
	if tail := cfg.FactsAt(assignSpec, entry, findCall(t, fd.Body, "tail")); tail == nil {
		t.Error("tail() unreachable: goto approximation severed the fall-through path")
	}
}

// A lock acquired only inside a range body must not be held after the loop
// (the range may iterate zero times), so a post-loop Lock is no
// self-deadlock.
func TestRangeBodyFactLeak(t *testing.T) {
	src := `package p

import "sync"

type C struct{ mu sync.Mutex }

func (c *C) F(m map[int]int) {
	for k := range m {
		_ = k
		c.mu.Lock()
		c.mu.Unlock()
		c.mu.Lock()
	}
	c.mu.Lock() // not a self-deadlock: the loop may run zero times
	c.mu.Unlock()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, info := typeCheckTestFile(t, fset, f)
	fd := f.Decls[len(f.Decls)-1].(*ast.FuncDecl)
	spec := lockFacts(fset, info)
	cfg := NewCFG(fd.Body)
	entry := cfg.Forward(spec)

	// The post-loop c.mu.Lock() is the last Lock in source order.
	var post *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if s, ok := c.Fun.(*ast.SelectorExpr); ok && s.Sel.Name == "Lock" {
				post = c
			}
		}
		return true
	})
	if held := cfg.FactsAt(spec, entry, post); held["c.mu"] != "" {
		t.Fatalf("c.mu reported held after a possibly-zero-iteration range loop: %v", held)
	}
}
