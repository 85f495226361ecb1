package lint

import "go/ast"

// The third substrate layer: a small forward dataflow driver over the CFG.
// Facts are string->string maps (key -> value); the driver iterates
// transfer functions to a fixpoint with a client-chosen join. lockcheck
// uses it with intersection join ("must hold") and facts like
// "c.mu" -> "Lock".

// Facts is one program point's dataflow state. nil means "unvisited" (top):
// joining top with any state yields that state, so unreachable blocks never
// dilute reachable ones.
type Facts map[string]string

// clone copies facts (transfer functions mutate their input's copy).
func (f Facts) clone() Facts {
	out := make(Facts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func (f Facts) equal(o Facts) bool {
	if len(f) != len(o) {
		return false
	}
	for k, v := range f {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// intersect keeps entries present with equal values in both (must-join).
func intersect(a, b Facts) Facts {
	out := make(Facts)
	for k, v := range a {
		if bv, ok := b[k]; ok && bv == v {
			out[k] = v
		}
	}
	return out
}

// FlowSpec configures one forward analysis.
type FlowSpec struct {
	// Init is the state at function entry.
	Init Facts
	// Transfer applies one CFG node to the state in place.
	Transfer func(n ast.Node, state Facts)
	// Join merges two incoming states; nil selects intersection (must).
	Join func(a, b Facts) Facts
}

// Forward runs the analysis to fixpoint and returns each block's entry
// state. Blocks never reached from entry map to nil.
func (c *CFG) Forward(spec FlowSpec) map[*Block]Facts {
	join := spec.Join
	if join == nil {
		join = intersect
	}
	in := make(map[*Block]Facts, len(c.Blocks))
	init := spec.Init
	if init == nil {
		init = Facts{}
	}
	in[c.Entry] = init.clone()

	work := []*Block{c.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		state := in[blk]
		if state == nil {
			continue
		}
		state = state.clone()
		for _, n := range blk.Nodes {
			spec.Transfer(n, state)
		}
		for _, succ := range blk.Succs {
			var next Facts
			if prev := in[succ]; prev == nil {
				next = state.clone()
			} else {
				next = join(prev, state)
			}
			if prev := in[succ]; prev == nil || !prev.equal(next) {
				in[succ] = next
				work = append(work, succ)
			}
		}
	}
	return in
}

// FactsAt replays the block containing pos up to (but not including) the
// node that spans it, returning the state in force when that node begins
// executing. Returns nil when pos is in no reachable block (dead code or
// inside a closure).
func (c *CFG) FactsAt(spec FlowSpec, entry map[*Block]Facts, n ast.Node) Facts {
	blk, idx := c.BlockOf(n.Pos())
	if blk == nil || entry[blk] == nil {
		return nil
	}
	state := entry[blk].clone()
	for i := 0; i < idx; i++ {
		spec.Transfer(blk.Nodes[i], state)
	}
	return state
}
