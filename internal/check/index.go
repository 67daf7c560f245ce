package check

import "icbe/internal/ir"

// procIndex is the per-run procedure index the passes share, built in one
// pass over the node arena: live nodes grouped by owning procedure in ID
// order, each node's position within its group, and each variable's
// position among its owner's variables (ir.LocalSlots). Nodes whose Proc is
// out of range belong to no group.
type procIndex struct {
	prog  *ir.Program
	nodes [][]*ir.Node
	// pos maps NodeID → position in its procedure's group, -1 for deleted
	// nodes and nodes outside every group.
	pos []int32
	// varSlot/varCount are ir.LocalSlots.
	varSlot  []int32
	varCount []int32
	// reach is per-procedure structural reachability, computed on first use
	// (see reachable).
	reach []bool
}

func newProcIndex(p *ir.Program) *procIndex {
	ix := &procIndex{prog: p, nodes: make([][]*ir.Node, len(p.Procs)), pos: make([]int32, len(p.Nodes))}
	for i, n := range p.Nodes {
		ix.pos[i] = -1
		if n == nil || n.Proc < 0 || n.Proc >= len(p.Procs) {
			continue
		}
		ix.pos[i] = int32(len(ix.nodes[n.Proc]))
		ix.nodes[n.Proc] = append(ix.nodes[n.Proc], n)
	}
	ix.varSlot, ix.varCount = ir.LocalSlots(p)
	return ix
}

// index returns the context's procedure index, building it on first use.
func (cx *Context) index() *procIndex {
	if cx.idx == nil {
		cx.idx = newProcIndex(cx.Prog)
	}
	return cx.idx
}

// procNodes returns the live nodes of procedure proc in ID order.
func (ix *procIndex) procNodes(proc int) []*ir.Node {
	if proc < 0 || proc >= len(ix.nodes) {
		return nil
	}
	return ix.nodes[proc]
}

// nodePos returns the node's position within procedure proc's group.
func (ix *procIndex) nodePos(id ir.NodeID, proc int) (int, bool) {
	if id < 0 || int(id) >= len(ix.pos) || ix.pos[id] < 0 || ix.prog.Nodes[id].Proc != proc {
		return 0, false
	}
	return int(ix.pos[id]), true
}

// varPos returns the variable's position among procedure proc's own
// variables; ok is false for globals and other procedures' variables.
func (ix *procIndex) varPos(v ir.VarID, proc int) (int, bool) {
	if v < 0 || int(v) >= len(ix.varSlot) || ix.varSlot[v] < 0 || ix.prog.Vars[v].Proc != proc {
		return 0, false
	}
	return int(ix.varSlot[v]), true
}

// reachable returns per-procedure structural reachability as one dense
// bitmap over node IDs: reach[n] reports whether n is reachable from the
// entries of its own procedure by a BFS over same-procedure successor
// edges. That is exactly the rule restructure's pruning uses, so a node
// outside the set after an apply is a node pruning should have removed. An
// entry listed under another procedure seeds that procedure's search
// without counting as reached for its own.
func (ix *procIndex) reachable() []bool {
	if ix.reach != nil {
		return ix.reach
	}
	p := ix.prog
	ix.reach = make([]bool, len(p.Nodes))
	var stack []ir.NodeID
	for _, pr := range p.Procs {
		if pr == nil {
			continue
		}
		for _, e := range pr.Entries {
			en := p.Node(e)
			if en == nil {
				continue
			}
			if en.Proc != pr.Index {
				stack = ix.visitSuccs(en, pr.Index, stack)
			} else if !ix.reach[e] {
				ix.reach[e] = true
				stack = append(stack, e)
			}
		}
		for len(stack) > 0 {
			n := p.Node(stack[len(stack)-1])
			stack = ix.visitSuccs(n, pr.Index, stack[:len(stack)-1])
		}
	}
	return ix.reach
}

// visitSuccs marks and pushes n's unvisited successors in procedure proc.
func (ix *procIndex) visitSuccs(n *ir.Node, proc int, stack []ir.NodeID) []ir.NodeID {
	for _, s := range n.Succs {
		sn := ix.prog.Node(s)
		if sn == nil || sn.Proc != proc || ix.reach[s] {
			continue
		}
		ix.reach[s] = true
		stack = append(stack, s)
	}
	return stack
}
