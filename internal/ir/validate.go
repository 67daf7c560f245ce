package ir

import (
	"errors"
	"fmt"
)

// Validate checks the structural invariants of the ICFG, including
// call-site normal form. It returns an error describing every violation
// found (joined), or nil.
func Validate(p *Program) error {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	// Arena consistency and edge symmetry. procNodes counts each in-range
	// procedure's live nodes for the entry check below.
	procNodes := make([]int, len(p.Procs))
	for i, n := range p.Nodes {
		if n == nil {
			continue
		}
		if int(n.ID) != i {
			bad("node at index %d has ID %d", i, n.ID)
		}
		if n.Proc < 0 || n.Proc >= len(p.Procs) {
			bad("node %d has invalid proc %d", n.ID, n.Proc)
			continue
		}
		procNodes[n.Proc]++
		for _, s := range n.Succs {
			sn := p.Node(s)
			if sn == nil {
				bad("node %d has dangling successor %d", n.ID, s)
				continue
			}
			if count(sn.Preds, n.ID) != count(n.Succs, s) {
				bad("edge %d->%d asymmetric (succs %d, preds %d)",
					n.ID, s, count(n.Succs, s), count(sn.Preds, n.ID))
			}
		}
		for _, m := range n.Preds {
			if p.Node(m) == nil {
				bad("node %d has dangling predecessor %d", n.ID, m)
			}
		}
	}

	// Variable arena consistency.
	for i, v := range p.Vars {
		if v == nil {
			continue
		}
		if int(v.ID) != i {
			bad("var at index %d has ID %d", i, v.ID)
		}
		if !v.IsGlobal() && (v.Proc < 0 || v.Proc >= len(p.Procs)) {
			bad("var %d (%q) has invalid proc %d", v.ID, v.Name, v.Proc)
		}
	}

	// checkVar verifies one node's variable reference: in range, live, and
	// owned by the referencing node's procedure (or global). Cross-procedure
	// references cannot arise from lowering or restructuring — splits copy
	// nodes within one procedure — so one here means a corrupted rewrite.
	checkVar := func(n *Node, v VarID, role string) {
		if v < 0 || int(v) >= len(p.Vars) || p.Vars[v] == nil {
			bad("node %d (%s) %s references invalid var %d", n.ID, n.Kind, role, v)
			return
		}
		if vr := p.Vars[v]; !vr.IsGlobal() && vr.Proc != n.Proc {
			bad("node %d (%s) %s references var %q of another proc", n.ID, n.Kind, role, vr.Name)
		}
	}
	checkOperand := func(n *Node, o Operand, role string) {
		if !o.IsConst {
			checkVar(n, o.Var, role)
		}
	}

	// Per-kind shape. Nodes with an invalid proc were reported above and
	// cannot be checked further without faulting.
	p.LiveNodes(func(n *Node) {
		if n.Proc < 0 || n.Proc >= len(p.Procs) || p.Procs[n.Proc] == nil {
			return
		}
		switch n.Kind {
		case NAssign:
			if n.Dst != NoVar {
				checkVar(n, n.Dst, "dst")
			}
			switch n.RHS.Kind {
			case RCopy, RNeg, RByte:
				checkVar(n, n.RHS.Src, "src")
			case RBinop:
				checkOperand(n, n.RHS.A, "operand")
				checkOperand(n, n.RHS.B, "operand")
			case RLoad:
				checkVar(n, n.RHS.Src, "base")
				checkOperand(n, n.RHS.A, "index")
			case RAlloc:
				checkOperand(n, n.RHS.A, "size")
			}
		case NAssert:
			checkVar(n, n.AVar, "assert var")
		case NStore:
			checkVar(n, n.Ptr, "base")
			checkOperand(n, n.Idx, "index")
			checkOperand(n, n.Val, "value")
		case NPrint:
			checkOperand(n, n.Val, "value")
		}
		switch n.Kind {
		case NBranch:
			if len(n.Succs) != 2 {
				bad("branch %d has %d successors, want 2", n.ID, len(n.Succs))
			}
			checkVar(n, n.CondVar, "condition")
			checkOperand(n, n.CondRHS, "condition rhs")
		case NExit:
			for _, s := range n.Succs {
				if sn := p.Node(s); sn != nil && sn.Kind != NCallExit {
					bad("exit %d has non-callexit successor %d (%s)", n.ID, s, sn.Kind)
				}
			}
			if !containsID(p.Procs[n.Proc].Exits, n.ID) {
				bad("exit %d not listed in proc %q exits", n.ID, p.Procs[n.Proc].Name)
			}
		case NEntry:
			for _, m := range n.Preds {
				mn := p.Node(m)
				if mn == nil {
					continue
				}
				if mn.Kind != NCall {
					bad("entry %d has non-call predecessor %d (%s)", n.ID, m, mn.Kind)
				} else if mn.Callee != n.Proc {
					bad("entry %d of proc %q reached by call %d targeting callee %d",
						n.ID, p.Procs[n.Proc].Name, m, mn.Callee)
				}
			}
			if !containsID(p.Procs[n.Proc].Entries, n.ID) {
				bad("entry %d not listed in proc %q entries", n.ID, p.Procs[n.Proc].Name)
			}
		case NCall:
			callee := n.Callee
			if callee < 0 || callee >= len(p.Procs) || p.Procs[callee] == nil {
				bad("call %d has invalid callee %d", n.ID, callee)
				return
			}
			if len(n.Args) != len(p.Procs[callee].Formals) {
				bad("call %d passes %d args to %q which has %d formals",
					n.ID, len(n.Args), p.Procs[callee].Name, len(p.Procs[callee].Formals))
			}
			for _, a := range n.Args {
				checkVar(n, a, "argument")
			}
			entries, callExits := 0, 0
			for _, s := range n.Succs {
				sn := p.Node(s)
				if sn == nil {
					continue
				}
				switch sn.Kind {
				case NEntry:
					entries++
					if sn.Proc != callee {
						bad("call %d to %q enters proc %q", n.ID, p.Procs[callee].Name, procName(p, sn.Proc))
					}
				case NCallExit:
					callExits++
					if sn.Proc != n.Proc {
						bad("call %d has callexit %d in a different proc", n.ID, s)
					}
				default:
					bad("call %d has invalid successor kind %s", n.ID, sn.Kind)
				}
			}
			// Normal form (a): exactly one procedure-entry successor.
			if entries != 1 {
				bad("call %d has %d entry successors, want 1 (normal form)", n.ID, entries)
			}
			if callExits < 1 {
				bad("call %d has no call-site-exit successor", n.ID)
			}
		case NCallExit:
			if n.Callee < 0 || n.Callee >= len(p.Procs) || p.Procs[n.Callee] == nil {
				bad("callexit %d has invalid callee %d", n.ID, n.Callee)
				return
			}
			if n.Dst != NoVar {
				checkVar(n, n.Dst, "dst")
			}
			calls, exits := 0, 0
			for _, m := range n.Preds {
				mn := p.Node(m)
				if mn == nil {
					continue
				}
				switch mn.Kind {
				case NCall:
					calls++
					if mn.Callee != n.Callee {
						bad("callexit %d callee mismatch with call %d", n.ID, m)
					}
				case NExit:
					exits++
					if mn.Proc != n.Callee {
						bad("callexit %d returns from proc %q, want %q",
							n.ID, procName(p, mn.Proc), p.Procs[n.Callee].Name)
					}
				default:
					bad("callexit %d has invalid predecessor kind %s", n.ID, mn.Kind)
				}
			}
			// Normal form (b): one call-site predecessor, one exit
			// predecessor.
			if calls != 1 || exits != 1 {
				bad("callexit %d has %d call preds and %d exit preds, want 1/1 (normal form)",
					n.ID, calls, exits)
			}
		}
		// Every node except exits must flow somewhere.
		if n.Kind != NExit && len(n.Succs) == 0 {
			bad("node %d (%s) has no successors", n.ID, n.Kind)
		}
		if n.Kind != NBranch && n.Kind != NCall && n.Kind != NExit && len(n.Succs) > 1 {
			bad("node %d (%s) has %d successors, want at most 1", n.ID, n.Kind, len(n.Succs))
		}
	})

	// Procedure entry/exit lists refer to live nodes of the right kind. A
	// procedure whose every call site was optimized away may be fully
	// pruned (no entries and no nodes) — that is valid dead-code removal.
	for _, pr := range p.Procs {
		if pr == nil {
			continue
		}
		if len(pr.Entries) == 0 && procHasNodes(p, procNodes, pr.Index) {
			bad("proc %q has nodes but no entries", pr.Name)
		}
		seenEntry := make(map[NodeID]bool)
		for _, e := range pr.Entries {
			n := p.Node(e)
			if n == nil || n.Kind != NEntry || n.Proc != pr.Index {
				bad("proc %q entry %d invalid", pr.Name, e)
			}
			if seenEntry[e] {
				bad("proc %q lists entry %d twice", pr.Name, e)
			}
			seenEntry[e] = true
		}
		seenExit := make(map[NodeID]bool)
		for _, e := range pr.Exits {
			n := p.Node(e)
			if n == nil || n.Kind != NExit || n.Proc != pr.Index {
				bad("proc %q exit %d invalid", pr.Name, e)
			}
			if seenExit[e] {
				bad("proc %q lists exit %d twice", pr.Name, e)
			}
			seenExit[e] = true
		}
		// The procedure's declared interface variables: formals are
		// parameters of this procedure, the return slot is its VarRet.
		for _, f := range pr.Formals {
			v := varOf(p, f)
			if v == nil {
				bad("proc %q formal %d invalid", pr.Name, f)
			} else if v.Kind != VarParam || v.Proc != pr.Index {
				bad("proc %q formal %q is %s of proc %d, want its own parameter",
					pr.Name, v.Name, v.Kind, v.Proc)
			}
		}
		if v := varOf(p, pr.RetVar); v == nil {
			bad("proc %q return var %d invalid", pr.Name, pr.RetVar)
		} else if v.Kind != VarRet || v.Proc != pr.Index {
			bad("proc %q return var %q is %s of proc %d, want its own return slot",
				pr.Name, v.Name, v.Kind, v.Proc)
		}
	}

	if p.MainProc < 0 || p.MainProc >= len(p.Procs) || p.Procs[p.MainProc] == nil {
		bad("main proc index %d invalid", p.MainProc)
	}

	return errors.Join(errs...)
}

// procHasNodes reports whether procedure proc owns a live node, from the
// per-procedure counts when proc is in range and by a scan otherwise.
func procHasNodes(p *Program, counts []int, proc int) bool {
	if proc >= 0 && proc < len(counts) {
		return counts[proc] > 0
	}
	for _, n := range p.Nodes {
		if n != nil && n.Proc == proc {
			return true
		}
	}
	return false
}

func procName(p *Program, i int) string {
	if i >= 0 && i < len(p.Procs) && p.Procs[i] != nil {
		return p.Procs[i].Name
	}
	return fmt.Sprintf("?%d", i)
}

func varOf(p *Program, v VarID) *Var {
	if v < 0 || int(v) >= len(p.Vars) {
		return nil
	}
	return p.Vars[v]
}

func count(ids []NodeID, x NodeID) int {
	c := 0
	for _, id := range ids {
		if id == x {
			c++
		}
	}
	return c
}

func containsID(ids []NodeID, x NodeID) bool {
	for _, id := range ids {
		if id == x {
			return true
		}
	}
	return false
}
