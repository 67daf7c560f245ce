package restructure

import "icbe/internal/ir"

// revDiff is what one attempt changed: the difference between the working
// revision and the attempt's scratch clone, computed once per attempt after
// the scratch validated clean. It scopes the per-attempt gate work that
// depends only on what changed — the check gate's procedure passes and the
// shadow oracle's decode — and, when the attempt is adopted, it is the
// round's dirty set.
type revDiff struct {
	// nodes are the changed node IDs in ascending order, by nodeChanged:
	// created, deleted, retyped and re-wired nodes alike.
	nodes []ir.NodeID
	// procs marks the changed procedures by position: the old or new
	// owner of a changed node, and every procedure whose name, entries,
	// exits or return variable differ.
	procs []bool
	// all means the diff cannot scope anything and every gate runs on the
	// whole program: the variable arena, the procedure count or the main
	// procedure changed, a procedure is missing or its index is not its
	// position, a procedure's formals changed (its call sites, in other
	// procedures, bind them), or the working revision did not validate
	// clean (so it may hold the cross-procedure references a
	// per-procedure result cannot see). This is the one place that
	// decides whether gate work may be scoped: the check layer and the
	// decoder take a scoped diff's marks and nodes as given.
	all bool
}

// compute diffs after against before, reusing d's storage. beforeValid
// reports that before passed ir.Validate.
func (d *revDiff) compute(before, after *ir.Program, beforeValid bool) {
	d.nodes = d.nodes[:0]
	for i, bn := range after.Nodes {
		var an *ir.Node
		if i < len(before.Nodes) {
			an = before.Nodes[i]
		}
		if nodeChanged(an, bn) {
			d.nodes = append(d.nodes, ir.NodeID(i))
		}
	}
	// A shrunken arena (never produced by restructuring) deletes the tail.
	for i := len(after.Nodes); i < len(before.Nodes); i++ {
		if before.Nodes[i] != nil {
			d.nodes = append(d.nodes, ir.NodeID(i))
		}
	}
	d.all = !beforeValid || len(before.Procs) != len(after.Procs) ||
		before.MainProc != after.MainProc || !sameVars(before.Vars, after.Vars)
	if d.all {
		d.procs = d.procs[:0]
		return
	}
	n := len(after.Procs)
	if cap(d.procs) < n {
		d.procs = make([]bool, n)
	}
	d.procs = d.procs[:n]
	clear(d.procs)
	mark := func(proc int) {
		if proc >= 0 && proc < n {
			d.procs[proc] = true
		}
	}
	for _, id := range d.nodes {
		if int(id) < len(before.Nodes) && before.Nodes[id] != nil {
			mark(before.Nodes[id].Proc)
		}
		if int(id) < len(after.Nodes) && after.Nodes[id] != nil {
			mark(after.Nodes[id].Proc)
		}
	}
	for i, ap := range after.Procs {
		bp := before.Procs[i]
		if ap == nil || bp == nil || ap.Index != i || bp.Index != i || !equalVarIDs(ap.Formals, bp.Formals) {
			d.all = true
			d.procs = d.procs[:0]
			return
		}
		if ap.Name != bp.Name || ap.RetVar != bp.RetVar || !equalNodeIDs(ap.Entries, bp.Entries) ||
			!equalNodeIDs(ap.Exits, bp.Exits) {
			d.procs[i] = true
		}
	}
}

// changedProcs returns the changed-procedure marks for a scoped check run,
// nil when there is no diff or it scopes nothing.
func (d *revDiff) changedProcs() []bool {
	if d == nil || d.all {
		return nil
	}
	return d.procs
}

// sameVars reports whether two variable arenas hold equal variables.
func sameVars(a, b []*ir.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || a[i] != nil && *a[i] != *b[i] {
			return false
		}
	}
	return true
}

// markDirty records the adopted attempt's changed nodes in the round's
// dirty map (consumed by the memo Commit) and dirty bitset (consumed by
// visitedDirty), sized for the adopted program's arena, and returns the
// grown bitset. A snapshot analysis that visited none of them would
// compute the same result on the new program: its demand-driven traversal
// can only reach changed program parts through a changed node.
func markDirty(dirty map[ir.NodeID]bool, dirtyBits []uint64, d *revDiff, after *ir.Program) []uint64 {
	words := (len(after.Nodes) + 63) / 64
	for len(dirtyBits) < words {
		dirtyBits = append(dirtyBits, 0)
	}
	for _, id := range d.nodes {
		if int(id) >= len(after.Nodes) {
			break // only the tail of a shrunken arena lies beyond
		}
		dirty[id] = true
		dirtyBits[id>>6] |= 1 << (uint(id) & 63)
	}
	return dirtyBits
}
