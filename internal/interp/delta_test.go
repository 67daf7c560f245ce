package interp

import (
	"fmt"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
)

// changedNodes lists the nodes that differ between two revisions (an empty
// and a nil edge list are the same).
func changedNodes(a, b *ir.Program) []ir.NodeID {
	var out []ir.NodeID
	for i := 0; i < len(a.Nodes) || i < len(b.Nodes); i++ {
		var an, bn *ir.Node
		if i < len(a.Nodes) {
			an = a.Nodes[i]
		}
		if i < len(b.Nodes) {
			bn = b.Nodes[i]
		}
		if (an == nil) != (bn == nil) || an != nil && fmt.Sprintf("%+v", *an) != fmt.Sprintf("%+v", *bn) {
			out = append(out, ir.NodeID(i))
		}
	}
	return out
}

// runAll renders the runs of a decode on every input, profile included.
func runAll(d *Prepared, inputs [][]int64) string {
	var s string
	for _, in := range inputs {
		res, err := d.Run(Options{Input: in, MaxSteps: 100_000, Profile: true})
		s += fmt.Sprintf("%v %d %d %d %v %v\n", res.Output, res.Steps, res.Operations, res.CondExecs, res.ExecCount, err)
	}
	return s
}

var deltaInputs = [][]int64{nil, {0}, {5}, {-3, 7, 2}, {1, 2, 3, 4, 5, 6, 7, 8}}

// assertDelta checks that the delta decode of post from pre's decode runs
// exactly like a fresh decode of post.
func assertDelta(t *testing.T, pre, post *ir.Program) *Prepared {
	t.Helper()
	delta := PrepareFrom(nil, Prepare(pre), post, changedNodes(pre, post))
	if got, want := runAll(delta, deltaInputs), runAll(Prepare(post), deltaInputs); got != want {
		t.Fatalf("delta decode runs\n%s\nfresh decode runs\n%s", got, want)
	}
	return delta
}

func mustBuild(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func nodeWhere(t *testing.T, p *ir.Program, proc int, ok func(*ir.Node) bool) *ir.Node {
	t.Helper()
	for _, n := range p.ProcNodes(proc) {
		if ok(n) {
			return n
		}
	}
	t.Fatalf("no matching node in proc %d", proc)
	return nil
}

// TestPrepareFromRedecodesPredecessors moves a node into another procedure
// while its predecessor keeps the edge to it. The predecessor itself is
// unchanged, but control now leaves its procedure without a call, so a
// fresh decode is unscoped: the moved path reads the other procedure's
// local from the caller's frame, which yields 0. The delta must re-decode
// the predecessor to see that; a stale copy keeps the scoped fast path,
// which reads the caller's own slot instead.
func TestPrepareFromRedecodesPredecessors(t *testing.T) {
	pre := mustBuild(t, `
		func f(a) { var y = a + 1; print(y); return y; }
		func main() { var x = input(); var z = x * 3; print(z); var r = f(x); print(r); }`)
	post := ir.Clone(pre)
	main, f := post.ProcByName("main").Index, post.ProcByName("f").Index
	p := nodeWhere(t, post, main, func(n *ir.Node) bool { return n.Kind == ir.NPrint })
	u := nodeWhere(t, post, f, func(n *ir.Node) bool { return n.Kind == ir.NPrint })
	// p becomes a nop of f continuing at f's print of its local y.
	post.RemoveEdge(p.ID, p.Succs[0])
	p.Kind, p.Proc, p.Val, p.Synthetic = ir.NNop, f, ir.Operand{}, true
	post.AddEdge(p.ID, u.ID)
	if err := ir.Validate(post); err != nil {
		t.Fatalf("the moved node must leave the program valid: %v", err)
	}
	if Prepare(post).scoped {
		t.Fatal("a fresh decode of the moved program is scoped; the test exercises nothing")
	}
	if assertDelta(t, pre, post).scoped {
		t.Fatal("delta decode is scoped")
	}
}

// TestPrepareFromRedecodesReturnTables gives a call-site exit a second
// call predecessor. Neither the exit of the callee nor the call-site exit
// changes, but the exit's return table, which reads the call-site exit's
// call predecessor, must lose that return point: returning through it is
// now a runtime error.
func TestPrepareFromRedecodesReturnTables(t *testing.T) {
	pre := mustBuild(t, `
		func f(a) { return a + 1; }
		func main() { var x = input(); var r = f(x); print(r); }`)
	main := pre.ProcByName("main").Index
	ce := nodeWhere(t, pre, main, func(n *ir.Node) bool { return n.Kind == ir.NCallExit })
	// y is an unreachable node feeding the call-site exit; in post it
	// turns into a second call.
	y := pre.NewNode(ir.NNop, main)
	pre.AddEdge(y.ID, ce.ID)
	post := ir.Clone(pre)
	post.Nodes[y.ID].Kind, post.Nodes[y.ID].Callee = ir.NCall, ce.Callee
	if got := changedNodes(pre, post); len(got) != 1 || got[0] != y.ID {
		t.Fatalf("changed nodes %v, want only the new call", got)
	}
	if _, err := Prepare(post).Run(Options{Input: []int64{4}}); err == nil {
		t.Fatal("a fresh decode returns through the ambiguous call-site exit; the test exercises nothing")
	}
	assertDelta(t, pre, post)
}

// TestPrepareFromRecyclesStorage decodes deltas into the storage of dead
// decodes, chaining each delta on the previous one. Every link must run
// like a fresh decode, and a steady-state delta allocates no instruction
// or side-table arrays.
func TestPrepareFromRecyclesStorage(t *testing.T) {
	w := progs.ByName("goboard")
	revs := []*ir.Program{mustBuild(t, w.Source)}
	// Each revision rewrites one more constant assignment's value.
	for k := 0; k < 6; k++ {
		next := ir.Clone(revs[len(revs)-1])
		seen := 0
		for _, n := range next.Nodes {
			if n != nil && n.Kind == ir.NAssign && n.RHS.Kind == ir.RConst {
				if seen == k {
					n.RHS.Const += 1000 + int64(k)
					break
				}
				seen++
			}
		}
		revs = append(revs, next)
	}
	inputs := [][]int64{w.Train}
	decs := [2]*Prepared{Prepare(revs[0]), Prepare(mustBuild(t, progs.ByName("lisp").Source))}
	for i := 1; i < len(revs); i++ {
		base, dst := decs[(i-1)%2], decs[i%2]
		got := PrepareFrom(dst, base, revs[i], changedNodes(revs[i-1], revs[i]))
		if got != dst {
			t.Fatal("delta decode did not reuse the dead decode")
		}
		if a, b := runAll(got, inputs), runAll(Prepare(revs[i]), inputs); a != b {
			t.Fatalf("revision %d: delta chain runs %s, fresh %s", i, a, b)
		}
	}
	base, dst := decs[(len(revs)-1)%2], decs[len(revs)%2]
	last := revs[len(revs)-1]
	changed := changedNodes(revs[len(revs)-2], last)
	// The base is the last revision's own decode, so dst holds a decode of
	// equal size: only the re-decode bitmap may allocate.
	if n := testing.AllocsPerRun(20, func() { PrepareFrom(dst, base, last, changed) }); n > 1 {
		t.Fatalf("steady-state delta decode allocates %v times per call", n)
	}
}

// TestPrepareFromChainKeepsTablesCompact duplicates main's call of f once
// per revision, in front of the original, and chains each delta decode on
// the previous one. Every revision re-decodes f's exit (it gains a return
// point) and its entry's callers, so side tables appended to a copy of the
// base's would keep every superseded entry; a delta's tables must instead
// be exactly a fresh decode's.
func TestPrepareFromChainKeepsTablesCompact(t *testing.T) {
	revs := []*ir.Program{mustBuild(t, `
		func f(a) { if (a > 2) { return a; } return a + 1; }
		func main() { var x = input(); var r = f(x); print(r); }`)}
	for k := 0; k < 6; k++ {
		p := ir.Clone(revs[len(revs)-1])
		main, f := p.ProcByName("main").Index, p.ProcByName("f")
		call := nodeWhere(t, p, main, func(n *ir.Node) bool { return n.Kind == ir.NCall })
		ce := p.CallExitSuccs(call)[0]
		// The copy reads and writes what the original does and continues
		// at the original call.
		c2 := p.NewNode(ir.NCall, main)
		c2.Callee, c2.Args, c2.Line = call.Callee, append([]ir.VarID(nil), call.Args...), call.Line
		ce2 := p.NewNode(ir.NCallExit, main)
		ce2.Callee, ce2.Dst, ce2.Line = ce.Callee, ce.Dst, ce.Line
		p.RedirectSucc(call.Preds[0], call.ID, c2.ID)
		p.AddEdge(c2.ID, f.Entries[0])
		p.AddEdge(c2.ID, ce2.ID)
		for _, x := range f.Exits {
			p.AddEdge(x, ce2.ID)
		}
		p.AddEdge(ce2.ID, call.ID)
		if err := ir.Validate(p); err != nil {
			t.Fatalf("revision %d: %v", k+1, err)
		}
		revs = append(revs, p)
	}
	decs := [2]*Prepared{Prepare(revs[0]), nil}
	for i := 1; i < len(revs); i++ {
		decs[1] = PrepareFrom(decs[1], decs[0], revs[i], changedNodes(revs[i-1], revs[i]))
		got, want := decs[1], Prepare(revs[i])
		if a, b := runAll(got, deltaInputs), runAll(want, deltaInputs); a != b {
			t.Fatalf("revision %d: delta chain runs\n%s\nfresh decode runs\n%s", i, a, b)
		}
		if g, w := [5]int{len(got.calls), len(got.args), len(got.formals), len(got.exits), len(got.rets)},
			[5]int{len(want.calls), len(want.args), len(want.formals), len(want.exits), len(want.rets)}; g != w {
			t.Fatalf("revision %d: delta side tables (calls, args, formals, exits, rets) %v, fresh %v", i, g, w)
		}
		decs[0], decs[1] = decs[1], decs[0]
	}
}
