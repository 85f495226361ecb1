package lint

import (
	"go/ast"
	"go/token"
)

// This file is the second substrate layer: a per-function basic-block
// control-flow graph, precise enough for the flow-sensitive analyzers
// (lockcheck's held-lock tracking) without trying to be a compiler IR.
//
// Simplifications, all conservative for a must-analysis client:
//
//   - function literals are opaque values — their bodies get no blocks here
//     (flow-sensitive clients skip sites inside closures; reachability
//     clients use the call graph, which does attribute closure calls);
//   - goto edges go to the exit block (no facts survive a goto);
//   - a select with no default still gets a fall-through edge, as does an
//     expression-less switch without default.

// Block is one basic block: statements that execute in sequence, then a
// branch to the successors.
type Block struct {
	Index int
	// Nodes are the statements (and for-loop conditions etc.) in execution
	// order. They are the original AST nodes.
	Nodes []ast.Node
	Succs []*Block
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Entry  *Block
	Exit   *Block // every return/panic/end-of-body edge lands here
	Blocks []*Block
}

// NewCFG builds the graph for a function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

// BlockOf returns the block and node index whose node spans pos, so clients
// can replay transfer functions up to a call site. Returns (nil, 0) for
// positions outside every block (e.g. inside a func literal).
func (c *CFG) BlockOf(pos token.Pos) (*Block, int) {
	for _, blk := range c.Blocks {
		for i, n := range blk.Nodes {
			if n.Pos() <= pos && pos <= n.End() && !insideFuncLit(n, pos) {
				return blk, i
			}
		}
	}
	return nil, 0
}

// insideFuncLit reports whether pos falls inside a func literal nested in n
// (such positions belong to the closure, not to this CFG).
func insideFuncLit(n ast.Node, pos token.Pos) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := m.(*ast.FuncLit); ok {
			if lit.Body.Pos() <= pos && pos <= lit.Body.End() {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

type loopFrame struct {
	label          string
	breakTarget    *Block
	continueTarget *Block // nil for switch/select frames
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil after a terminator until the next labeled/new block
	frames []loopFrame
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) { from.Succs = append(from.Succs, to) }

// current returns the block under construction, starting an unreachable one
// after a terminator so stray statements still have a home.
func (b *cfgBuilder) current() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) { blk := b.current(); blk.Nodes = append(blk.Nodes, n) }

// frame finds the innermost frame (or the one with the label) for
// break/continue resolution.
func (b *cfgBuilder) frame(label string, needContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needContinue && f.continueTarget == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	b.labeledStmt(s, "")
}

// labeledStmt builds one statement; label carries an enclosing label so
// loops register it for labeled break/continue.
func (b *cfgBuilder) labeledStmt(s ast.Stmt, label string) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range st.List {
			b.stmt(inner)
		}
	case *ast.LabeledStmt:
		// Start a fresh block so a goto-free label is still a join point.
		next := b.newBlock()
		b.edge(b.current(), next)
		b.cur = next
		b.labeledStmt(st.Stmt, st.Label.Name)
	case *ast.IfStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Cond)
		cond := b.current()
		after := b.newBlock()
		thenB := b.newBlock()
		b.edge(cond, thenB)
		b.cur = thenB
		b.stmt(st.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if st.Else != nil {
			elseB := b.newBlock()
			b.edge(cond, elseB)
			b.cur = elseB
			b.stmt(st.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(cond, after)
		}
		b.cur = after
	case *ast.ForStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		head := b.newBlock()
		b.edge(b.current(), head)
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		if st.Cond != nil {
			b.edge(head, after)
		}
		body := b.newBlock()
		b.edge(head, body)
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, continueTarget: post})
		b.cur = body
		b.stmt(st.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		if st.Post != nil {
			post.Nodes = append(post.Nodes, st.Post)
		}
		b.edge(post, head)
		b.cur = after
	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.current(), head)
		// Only the ranged expression evaluates at the head. The body gets
		// its own block below — recording the whole RangeStmt here would
		// replay body effects on the zero-iteration path and claim body
		// positions for the head block.
		head.Nodes = append(head.Nodes, st.X)
		after := b.newBlock()
		b.edge(head, after) // empty collection
		body := b.newBlock()
		b.edge(head, body)
		b.frames = append(b.frames, loopFrame{label: label, breakTarget: after, continueTarget: head})
		b.cur = body
		b.stmt(st.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after
	case *ast.SwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.buildCases(st.Body, label, nil)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Assign)
		b.buildCases(st.Body, label, nil)
	case *ast.SelectStmt:
		b.buildCases(st.Body, label, st)
	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.current(), b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if f := b.frame(labelName(st.Label), false); f != nil {
				b.edge(b.current(), f.breakTarget)
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.frame(labelName(st.Label), true); f != nil {
				b.edge(b.current(), f.continueTarget)
			}
			b.cur = nil
		case token.GOTO:
			b.edge(b.current(), b.cfg.Exit)
			b.cur = nil
		case token.FALLTHROUGH:
			// Handled structurally in buildCases (the clause's fall edge).
		}
	case *ast.ExprStmt:
		b.add(st)
		if isPanicCall(st.X) {
			b.edge(b.current(), b.cfg.Exit)
			b.cur = nil
		}
	default:
		// Assignments, declarations, sends, defers, go statements,
		// increments: straight-line nodes.
		b.add(st)
	}
}

// buildCases wires a switch/type-switch/select body: the dispatching block
// branches to every clause; clauses branch to the after block (or fall
// through to the next clause body).
func (b *cfgBuilder) buildCases(body *ast.BlockStmt, label string, sel *ast.SelectStmt) {
	dispatch := b.current()
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTarget: after})

	clauseBlocks := make([]*Block, len(body.List))
	for i := range body.List {
		clauseBlocks[i] = b.newBlock()
		b.edge(dispatch, clauseBlocks[i])
	}
	hasDefault := false
	for i, cl := range body.List {
		b.cur = clauseBlocks[i]
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				b.add(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				b.add(c.Comm)
			}
			stmts = c.Body
		}
		fallsThrough := false
		for _, s := range stmts {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(s)
		}
		if b.cur != nil {
			if fallsThrough && i+1 < len(clauseBlocks) {
				b.edge(b.cur, clauseBlocks[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	// No default: the dispatch may skip every clause (select without default
	// blocks, but treating it as skippable only widens the must-analysis).
	if !hasDefault || sel != nil {
		b.edge(dispatch, after)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

// isPanicCall matches the builtin panic (a block terminator).
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
