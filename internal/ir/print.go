package ir

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// VarName returns a readable name for a variable id.
func (p *Program) VarName(id VarID) string {
	if id == NoVar {
		return "_"
	}
	return p.Vars[id].Name
}

func (p *Program) opString(o Operand) string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Const)
	}
	return p.VarName(o.Var)
}

// NodeString renders a node's statement in a compact readable form.
func (p *Program) NodeString(n *Node) string {
	switch n.Kind {
	case NEntry:
		return fmt.Sprintf("entry %s", p.Procs[n.Proc].Name)
	case NExit:
		return fmt.Sprintf("exit %s", p.Procs[n.Proc].Name)
	case NCall:
		args := make([]string, len(n.Args))
		for i, a := range n.Args {
			args[i] = p.VarName(a)
		}
		return fmt.Sprintf("call %s(%s)", p.Procs[n.Callee].Name, strings.Join(args, ", "))
	case NCallExit:
		if n.Dst == NoVar {
			return fmt.Sprintf("ret-from %s", p.Procs[n.Callee].Name)
		}
		return fmt.Sprintf("%s := ret-from %s", p.VarName(n.Dst), p.Procs[n.Callee].Name)
	case NAssign:
		return fmt.Sprintf("%s := %s", p.VarName(n.Dst), p.rhsString(n.RHS))
	case NBranch:
		return fmt.Sprintf("if %s %s %s", p.VarName(n.CondVar), n.CondOp, p.opString(n.CondRHS))
	case NAssert:
		return fmt.Sprintf("assert %s %s", p.VarName(n.AVar), n.APred)
	case NStore:
		return fmt.Sprintf("%s[%s] := %s", p.VarName(n.Ptr), p.opString(n.Idx), p.opString(n.Val))
	case NPrint:
		return fmt.Sprintf("print %s", p.opString(n.Val))
	case NNop:
		return "nop"
	}
	return n.Kind.String()
}

func (p *Program) rhsString(r RHS) string {
	switch r.Kind {
	case RConst:
		return fmt.Sprintf("%d", r.Const)
	case RCopy:
		return p.VarName(r.Src)
	case RNeg:
		return "-" + p.VarName(r.Src)
	case RByte:
		return fmt.Sprintf("byte(%s)", p.VarName(r.Src))
	case RBinop:
		return fmt.Sprintf("%s %s %s", p.opString(r.A), r.Op, p.opString(r.B))
	case RLoad:
		return fmt.Sprintf("%s[%s]", p.VarName(r.Src), p.opString(r.A))
	case RAlloc:
		return fmt.Sprintf("alloc(%s)", p.opString(r.A))
	case RInput:
		return "input()"
	}
	return r.Kind.String()
}

// procGroups holds the live nodes grouped by owning procedure, in arena
// order, built in one pass over the arena. Procedures indexed outside the
// procedure table (malformed programs only) fall back to ProcNodes.
type procGroups struct {
	p      *Program
	groups [][]*Node
}

func groupByProc(p *Program) procGroups {
	counts := make([]int, len(p.Procs))
	live := 0
	for _, n := range p.Nodes {
		if n != nil && n.Proc >= 0 && n.Proc < len(counts) {
			counts[n.Proc]++
			live++
		}
	}
	all := make([]*Node, live)
	g := procGroups{p: p, groups: make([][]*Node, len(p.Procs))}
	off := 0
	for i, c := range counts {
		g.groups[i] = all[off : off : off+c]
		off += c
	}
	for _, n := range p.Nodes {
		if n != nil && n.Proc >= 0 && n.Proc < len(counts) {
			g.groups[n.Proc] = append(g.groups[n.Proc], n)
		}
	}
	return g
}

func (g procGroups) of(proc int) []*Node {
	if proc >= 0 && proc < len(g.groups) {
		return g.groups[proc]
	}
	return g.p.ProcNodes(proc)
}

// appendPadded appends s left-justified in a field of width runes.
func appendPadded(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

func idsIncreasing(nodes []*Node) bool {
	for i := 1; i < len(nodes); i++ {
		if nodes[i].ID <= nodes[i-1].ID {
			return false
		}
	}
	return true
}

// appendIDs appends ids in fmt's %v list form: [1 2 3].
func appendIDs(b []byte, ids []NodeID) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// Dump renders the whole ICFG as text, one procedure at a time, nodes in ID
// order with their successor lists.
func (p *Program) Dump() string {
	g := groupByProc(p)
	var b []byte
	for _, pr := range p.Procs {
		b = append(b, "proc "...)
		b = append(b, pr.Name...)
		b = append(b, " (entries "...)
		b = appendIDs(b, pr.Entries)
		b = append(b, ", exits "...)
		b = appendIDs(b, pr.Exits)
		b = append(b, ")\n"...)
		nodes := g.of(pr.Index)
		if !idsIncreasing(nodes) {
			// Only malformed programs hold IDs out of arena order.
			nodes = append([]*Node(nil), nodes...)
			sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
		}
		for _, n := range nodes {
			b = append(b, "  n"...)
			start := len(b)
			b = strconv.AppendInt(b, int64(n.ID), 10)
			for len(b)-start < 4 {
				b = append(b, ' ')
			}
			b = append(b, ' ')
			b = appendPadded(b, p.NodeString(n), 40)
			b = append(b, " -> ["...)
			for i, s := range n.Succs {
				if i > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendInt(b, int64(s), 10)
			}
			b = append(b, "]\n"...)
		}
	}
	return string(b)
}

// Dot renders the ICFG in Graphviz dot format (for debugging).
func (p *Program) Dot() string {
	g := groupByProc(p)
	b := []byte("digraph icfg {\n  node [shape=box fontname=monospace];\n")
	for _, pr := range p.Procs {
		b = append(b, "  subgraph cluster_"...)
		b = strconv.AppendInt(b, int64(pr.Index), 10)
		b = append(b, " { label="...)
		b = strconv.AppendQuote(b, pr.Name)
		b = append(b, ";\n"...)
		for _, n := range g.of(pr.Index) {
			b = append(b, "    n"...)
			b = strconv.AppendInt(b, int64(n.ID), 10)
			b = append(b, " [label=\""...)
			b = strconv.AppendInt(b, int64(n.ID), 10)
			b = append(b, ": "...)
			b = append(b, escapeDot(p.NodeString(n))...)
			b = append(b, '"')
			if n.Kind == NBranch {
				b = append(b, " shape=diamond"...)
			}
			b = append(b, "];\n"...)
		}
		b = append(b, "  }\n"...)
	}
	p.LiveNodes(func(n *Node) {
		for i, s := range n.Succs {
			b = append(b, "  n"...)
			b = strconv.AppendInt(b, int64(n.ID), 10)
			b = append(b, " -> n"...)
			b = strconv.AppendInt(b, int64(s), 10)
			if n.Kind == NBranch {
				if i == 0 {
					b = append(b, " [label=T]"...)
				} else {
					b = append(b, " [label=F]"...)
				}
			}
			b = append(b, ";\n"...)
		}
	})
	b = append(b, "}\n"...)
	return string(b)
}

func escapeDot(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
