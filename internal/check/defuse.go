package check

import (
	"icbe/internal/ir"
)

// forEachRead calls f for every variable the node's transfer function
// reads. Call-site exits read the callee's return variable, which is a
// cross-procedure read handled separately by the callers that need it; the
// implicit return-variable read at procedure exits is likewise opt-in (see
// assignFlow.forEachMayUndefRead).
func forEachRead(n *ir.Node, f func(ir.VarID)) {
	operand := func(o ir.Operand) {
		if !o.IsConst {
			f(o.Var)
		}
	}
	switch n.Kind {
	case ir.NAssign:
		switch n.RHS.Kind {
		case ir.RCopy, ir.RNeg, ir.RByte:
			f(n.RHS.Src)
		case ir.RBinop:
			operand(n.RHS.A)
			operand(n.RHS.B)
		case ir.RLoad:
			f(n.RHS.Src)
			operand(n.RHS.A)
		case ir.RAlloc:
			operand(n.RHS.A)
		}
	case ir.NBranch:
		f(n.CondVar)
		operand(n.CondRHS)
	case ir.NAssert:
		f(n.AVar)
	case ir.NCall:
		for _, a := range n.Args {
			f(a)
		}
	case ir.NStore:
		f(n.Ptr)
		operand(n.Idx)
		operand(n.Val)
	case ir.NPrint:
		operand(n.Val)
	}
}

// assignFlow holds the per-node maybe-assigned variable sets of one
// procedure: a forward dataflow (union over predecessors) whose in-state at
// a node holds every own variable some intraprocedural path to it assigns.
// A read of a variable that is not even maybe-assigned is the
// use-before-def lint finding.
//
// Dataflow edges are the intraprocedural ones: successor edges within the
// procedure, excluding return edges (procedure exit → call-site exit) and
// call-to-entry edges of self-recursive calls — a call site's local
// continuation is its call-site exit, whose only intraprocedural dataflow
// predecessor is the call.
type assignFlow struct {
	ix   *procIndex
	proc int
	// nodes are the procedure's live nodes in ID order; bit positions are
	// the variables' ir.LocalSlots slots.
	nodes []*ir.Node
	words int
	mayIn []uint64 // maybe-assigned at node entry, words per node
}

// analyzeAssignments runs the assignment dataflow for one procedure.
func analyzeAssignments(ix *procIndex, proc int) *assignFlow {
	af := &assignFlow{ix: ix, proc: proc, nodes: ix.procNodes(proc)}
	if proc >= 0 && proc < len(ix.varCount) {
		af.words = (int(ix.varCount[proc]) + 63) / 64
	}
	if af.words == 0 || len(af.nodes) == 0 {
		return af
	}
	af.mayIn = make([]uint64, af.words*len(af.nodes))
	af.solve()
	return af
}

// defs collects the node's assigned bit positions: assignment and call-site
// exit destinations, plus the formals at procedure entries.
func (af *assignFlow) defs(n *ir.Node, emit func(pos int)) {
	add := func(v ir.VarID) {
		if pos, ok := af.ix.varPos(v, af.proc); ok {
			emit(pos)
		}
	}
	switch n.Kind {
	case ir.NAssign, ir.NCallExit:
		if n.Dst != ir.NoVar {
			add(n.Dst)
		}
	case ir.NEntry:
		procs := af.ix.prog.Procs
		if n.Proc >= 0 && n.Proc < len(procs) && procs[n.Proc] != nil {
			for _, formal := range procs[n.Proc].Formals {
				add(formal)
			}
		}
	}
}

// flowPreds calls emit for every intraprocedural dataflow predecessor.
func (af *assignFlow) flowPreds(n *ir.Node, emit func(pos int)) {
	if n.Kind == ir.NEntry {
		return // entry predecessors are call sites of other frames
	}
	for _, m := range n.Preds {
		mn := af.ix.prog.Node(m)
		if mn == nil || mn.Kind == ir.NExit {
			continue // return edges are not local dataflow
		}
		if pos, ok := af.ix.nodePos(m, af.proc); ok {
			emit(pos)
		}
	}
}

// solve iterates the analysis to its fixpoint with round-robin sweeps (the
// sets only grow, so iteration terminates).
func (af *assignFlow) solve() {
	w := af.words
	// Per-node def bitsets, computed once: out(n) = in(n) | defRow(n).
	defRows := make([]uint64, w*len(af.nodes))
	for i, n := range af.nodes {
		row := defRows[i*w : (i+1)*w]
		af.defs(n, func(pos int) {
			row[pos/64] |= 1 << (pos % 64)
		})
	}
	for changed := true; changed; {
		changed = false
		for i, n := range af.nodes {
			if n.Kind == ir.NEntry {
				continue // boundary in-states stay empty
			}
			mrow := af.mayIn[i*w : (i+1)*w]
			af.flowPreds(n, func(pp int) {
				mr := af.mayIn[pp*w : (pp+1)*w]
				gen := defRows[pp*w : (pp+1)*w]
				for k := 0; k < w; k++ {
					if nv := mrow[k] | mr[k] | gen[k]; nv != mrow[k] {
						mrow[k] = nv
						changed = true
					}
				}
			})
		}
	}
}

// maybeAssignedAt reports whether any intraprocedural path reaching the
// procedure's i-th node assigns the variable. The second result is false
// when the variable does not belong to this procedure.
func (af *assignFlow) maybeAssignedAt(i int, v ir.VarID) (bool, bool) {
	pos, ok := af.ix.varPos(v, af.proc)
	if !ok || af.mayIn == nil {
		return false, false
	}
	return af.mayIn[i*af.words+pos/64]&(1<<(pos%64)) != 0, true
}
