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
	// reach is per-procedure structural reachability, computed for one
	// procedure at a time on first use (see reachableIn); reached marks the
	// procedures it holds.
	reach   []bool
	reached []bool
	// idMismatch records a live node whose ID is not its arena index
	// (malformed programs only). Passes index reach by node ID, so such a
	// node may read another procedure's bit, and every procedure is
	// searched up front.
	idMismatch, searchedAll bool
}

// newProcIndex builds the index into the store's storage. With a non-nil
// only, just the procedures it marks get a group: a scoped run reads no
// other procedure's nodes.
func newProcIndex(p *ir.Program, only []bool, st *Store) *procIndex {
	nProcs := len(p.Procs)
	ix := &procIndex{prog: p}
	st.ixPos = reset(st.ixPos, len(p.Nodes))
	st.ixCounts = reset(st.ixCounts, nProcs)
	ix.pos = st.ixPos
	inScope := func(n *ir.Node) bool {
		return n != nil && n.Proc >= 0 && n.Proc < nProcs && (only == nil || only[n.Proc])
	}
	grouped := 0
	for i, n := range p.Nodes {
		ix.pos[i] = -1
		if n != nil && int(n.ID) != i {
			ix.idMismatch = true
		}
		if inScope(n) {
			ix.pos[i] = st.ixCounts[n.Proc]
			st.ixCounts[n.Proc]++
			grouped++
		}
	}
	st.ixNodes = reset(st.ixNodes, grouped)
	st.ixGroups = reset(st.ixGroups, nProcs)
	ix.nodes = st.ixGroups
	off := 0
	for k, c := range st.ixCounts {
		ix.nodes[k] = st.ixNodes[off : off : off+int(c)]
		off += int(c)
	}
	for _, n := range p.Nodes {
		if inScope(n) {
			ix.nodes[n.Proc] = append(ix.nodes[n.Proc], n)
		}
	}
	if st.lay.sameLayout(p) {
		ix.varSlot, ix.varCount = st.lay.local, st.lay.count
	} else {
		ix.varSlot, ix.varCount = ir.LocalSlots(p)
	}
	st.ixReach = reset(st.ixReach, len(p.Nodes))
	st.ixReached = reset(st.ixReached, nProcs)
	ix.reach, ix.reached = st.ixReach, st.ixReached
	return ix
}

// index returns the context's procedure index, building it on first use.
func (cx *Context) index() *procIndex {
	if cx.idx == nil {
		if cx.store == nil {
			cx.store = new(Store)
		}
		cx.idx = newProcIndex(cx.Prog, cx.only, cx.store)
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

// reachableIn returns structural reachability as a dense bitmap over node
// IDs, valid for the nodes of procedure proc: reach[n] reports whether n is
// reachable from the entries of its own procedure by a BFS over
// same-procedure successor edges. That is exactly the rule restructure's
// pruning uses, so a node outside the set after an apply is a node pruning
// should have removed. The search seeds from the entries of every
// procedure indexed proc; an entry listed under a procedure but owned by
// another seeds the listing procedure's search without counting as reached
// for its own. Each procedure is searched once per index, so a scoped run
// searches only its procedures.
func (ix *procIndex) reachableIn(proc int) []bool {
	if ix.idMismatch {
		if !ix.searchedAll {
			ix.searchedAll = true
			for _, pr := range ix.prog.Procs {
				if pr != nil {
					ix.search(pr)
				}
			}
		}
		return ix.reach
	}
	if proc < 0 || proc >= len(ix.reached) || ix.reached[proc] {
		return ix.reach
	}
	ix.reached[proc] = true
	for _, pr := range ix.prog.Procs {
		if pr != nil && pr.Index == proc {
			ix.search(pr)
		}
	}
	return ix.reach
}

// search marks everything reachable from pr's entries within procedure
// pr.Index.
func (ix *procIndex) search(pr *ir.Proc) {
	p := ix.prog
	var stack []ir.NodeID
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
