package ir

// Clone returns a deep copy of the program. The copy shares nothing mutable
// with the original, so it can be restructured independently (the
// optimization drivers clone before transforming, keeping the original for
// comparison runs).
func Clone(p *Program) *Program { return CloneInto(nil, p) }

// CloneInto copies src into dst's storage and returns dst, or a fresh
// program when dst is nil. Cloning is the driver's hottest allocation site,
// so a dead revision can be recycled as the destination: the copy reuses
// the node, edge, argument, variable and procedure blocks an earlier
// CloneInto gave dst when they are large enough. The node and edge blocks
// keep headroom past the copy that NewNode and AddEdge draw from before
// they allocate.
//
// dst must be dead: every node, variable, procedure and edge list reached
// through it is overwritten, so nothing may still read it. dst and src must
// be distinct programs.
func CloneInto(dst, src *Program) *Program {
	if dst == nil {
		dst = &Program{}
	}
	edges, args, ids := 0, 0, 0
	for _, n := range src.Nodes {
		if n != nil {
			edges += len(n.Succs) + len(n.Preds)
			args += len(n.Args)
		}
	}
	for _, pr := range src.Procs {
		ids += len(pr.Entries) + len(pr.Exits)
		args += len(pr.Formals)
	}
	// A fresh node block leaves a quarter of the arena as headroom, and a
	// recycled one is reused while it still leaves minHeadroom: a program
	// grows by a few nodes per restructuring, so blocks recycled within a
	// driver run stay large enough for many revisions.
	nblock := dst.nodeBlock
	if cap(nblock) < len(src.Nodes)+minHeadroom {
		nblock = make([]Node, len(src.Nodes)+len(src.Nodes)/4+minHeadroom)
	}
	head := cap(nblock) - len(src.Nodes)
	nblock = nblock[:cap(nblock)]
	eblock := dst.edgeBlock[:0]
	if cap(eblock) < edges+ids+2*minHeadroom {
		eblock = make([]NodeID, 0, edges+ids+4*head)
	}
	ablock := reuse(dst.argBlock, args)[:0]
	vblock := reuse(dst.varBlock, len(src.Vars))
	pblock := reuse(dst.procBlock, len(src.Procs))
	*dst = Program{
		Procs:       reuse(dst.Procs, len(src.Procs)),
		Vars:        reuse(dst.Vars, len(src.Vars)),
		Nodes:       reuse(dst.Nodes, len(src.Nodes)),
		MainProc:    src.MainProc,
		SourceLines: src.SourceLines,
		nodeBlock:   nblock,
		edgeBlock:   eblock,
		argBlock:    ablock,
		varBlock:    vblock,
		procBlock:   pblock,
	}
	// carve appends s to a block and returns the copy with its capacity
	// capped, so a later append on either side reallocates instead of
	// overwriting a neighbour. Empty lists stay nil, as a plain copy would.
	carveVars := func(s []VarID) []VarID {
		if len(s) == 0 {
			return nil
		}
		ablock = append(ablock, s...)
		return ablock[len(ablock)-len(s) : len(ablock) : len(ablock)]
	}
	carveNodes := func(s []NodeID) []NodeID {
		eblock = append(eblock, s...)
		return eblock[len(eblock)-len(s) : len(eblock) : len(eblock)]
	}
	for i, v := range src.Vars {
		vblock[i] = *v
		dst.Vars[i] = &vblock[i]
	}
	for i, pr := range src.Procs {
		cp := &pblock[i]
		*cp = Proc{Name: pr.Name, Index: pr.Index, RetVar: pr.RetVar, Formals: carveVars(pr.Formals)}
		if len(pr.Entries) > 0 {
			cp.Entries = carveNodes(pr.Entries)
		}
		if len(pr.Exits) > 0 {
			cp.Exits = carveNodes(pr.Exits)
		}
		dst.Procs[i] = cp
	}
	for i, n := range src.Nodes {
		if n == nil {
			dst.Nodes[i] = nil
			continue
		}
		cn := &nblock[i]
		*cn = *n
		cn.Args = carveVars(n.Args)
		cn.Succs = carveNodes(n.Succs)
		cn.Preds = carveNodes(n.Preds)
		dst.Nodes[i] = cn
	}
	dst.nodePool = nblock[len(src.Nodes):]
	dst.edgePool = eblock[len(eblock):cap(eblock)]
	dst.edgeBlock = eblock
	dst.argBlock = ablock
	return dst
}

// minHeadroom is the node slack below which a recycled block is replaced.
const minHeadroom = 64

// reuse returns s resized to n elements when its capacity allows, else a
// new slice of n elements. Reused elements keep stale values; callers
// overwrite every element they read.
func reuse[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
