package restructure

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// procPassNames are the invariant passes that run per procedure.
var procPassNames = []string{"unreachable-node", "use-before-def"}

// assertCounts fails when a report's per-pass or per-procedure counts
// differ from a full run's on the same program.
func assertCounts(t *testing.T, label string, got, want *check.Report) {
	t.Helper()
	if !reflect.DeepEqual(got.PerPass, want.PerPass) {
		t.Fatalf("%s: counts %v, full run %v", label, got.PerPass, want.PerPass)
	}
	for _, pass := range procPassNames {
		if g, w := got.ProcCounts(pass), want.ProcCounts(pass); !slices.Equal(g, w) {
			t.Fatalf("%s: %s per-procedure counts %v, full run %v", label, pass, g, w)
		}
	}
}

// renderRuns renders a decode's runs on every input, profile included.
func renderRuns(d *interp.Prepared, inputs [][]int64) string {
	var s string
	for _, in := range inputs {
		res, err := d.Run(interp.Options{Input: in, MaxSteps: 50_000, Profile: true})
		s += fmt.Sprintf("%v %d %d %d %v %v\n", res.Output, res.Steps, res.Operations, res.CondExecs, res.ExecCount, err)
	}
	return s
}

// mutable reports whether a node may gain a predecessor or be redirected
// without breaking call-site normal form.
func mutable(n *ir.Node) bool {
	switch n.Kind {
	case ir.NAssign, ir.NAssert, ir.NPrint, ir.NStore, ir.NNop:
		return true
	}
	return false
}

// pick returns the b-th (mod len) node of proc satisfying ok, or nil.
func pick(p *ir.Program, proc int, b byte, ok func(*ir.Node) bool) *ir.Node {
	var cands []*ir.Node
	for _, n := range p.ProcNodes(proc) {
		if ok(n) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[int(b)%len(cands)]
}

// mutateProc applies one mutation, chosen by op, to procedure k: a
// constant rewrite, a negated assert, an edge redirected inside k, a
// rename (a record-only change), a node moved to another procedure behind
// a kept edge, or a bypassed and deleted assignment.
func mutateProc(p *ir.Program, k int, op, b byte) {
	switch op % 6 {
	case 0:
		if n := pick(p, k, b, func(n *ir.Node) bool {
			return n.Kind == ir.NAssign && n.RHS.Kind == ir.RConst || n.Analyzable()
		}); n != nil {
			n.RHS.Const += int64(b) + 1
			n.CondRHS.Const += int64(b%3) - 1
		}
	case 1:
		if n := pick(p, k, b, func(n *ir.Node) bool { return n.Kind == ir.NAssert }); n != nil {
			n.APred = n.APred.Negate()
		}
	case 2:
		n := pick(p, k, b, func(n *ir.Node) bool { return mutable(n) && len(n.Succs) == 1 })
		to := pick(p, k, b/3, func(n *ir.Node) bool { return mutable(n) || n.Kind == ir.NBranch })
		if n != nil && to != nil && to != n && n.Succs[0] != to.ID {
			p.RedirectSucc(n.ID, n.Succs[0], to.ID)
		}
	case 3:
		p.Procs[k].Name += "'"
	case 4:
		j := (k + 1 + int(b)) % len(p.Procs)
		n := pick(p, k, b, func(n *ir.Node) bool {
			return len(n.Succs) == 1 && (n.Kind == ir.NNop || n.Kind == ir.NPrint && n.Val.IsConst)
		})
		to := pick(p, j, b/5, mutable)
		if j != k && n != nil && to != nil {
			p.RemoveEdge(n.ID, n.Succs[0])
			n.Proc = j
			p.AddEdge(n.ID, to.ID)
		}
	case 5:
		n := pick(p, k, b, func(n *ir.Node) bool {
			return n.Kind == ir.NAssign && len(n.Preds) == 1 && len(n.Succs) == 1
		})
		if n != nil {
			m, s := n.Preds[0], n.Succs[0]
			if mn := p.Nodes[m]; mn.Kind != ir.NBranch && mn.Kind != ir.NCall {
				p.RedirectSucc(m, n.ID, s)
				p.DeleteNode(n.ID)
			}
		}
	}
}

// scopedProgram is the fuzz target's starting program.
func scopedProgram(seed uint64, shape uint8) *ir.Program {
	var src string
	switch shape % 3 {
	case 0:
		src = randprog.Generate(seed, randprog.Config{Procs: 4, MaxStmts: 6, MaxDepth: 3})
	case 1:
		src = randprog.Recursion(seed, randprog.RecConfig{})
	default:
		all := progs.All()
		src = all[seed%uint64(len(all))].Source
	}
	p, err := ir.Build(src)
	if err != nil {
		return nil
	}
	if shape&4 != 0 {
		p = Optimize(p, DriverOptions{Analysis: analysis.Options{Interprocedural: true,
			ModSummaries: true, TerminationLimit: 1000}}).Program
	}
	return p
}

// FuzzScopedGates mutates one procedure of a valid program at a time, up
// to three revisions in a chain, and checks the scoped gate work against
// full recomputation on every revision: the check layer's counts from the
// revision diff and the previous revision's report must equal a full run,
// and the delta decode from the previous revision's decode, written into
// recycled storage, must run every verify input exactly like a fresh
// decode.
func FuzzScopedGates(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed%8), []byte{byte(seed), byte(seed * 7), byte(seed + 1), byte(seed * 3),
			byte(seed + 2), byte(seed * 5), byte(seed + 4), byte(seed * 11), byte(seed + 5)})
	}
	inputs := verifyInputs(DriverOptions{})
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, ops []byte) {
		cur := scopedProgram(seed, shape)
		if cur == nil || ir.Validate(cur) != nil || len(cur.Procs) == 0 {
			t.Skip()
		}
		var stores storePair
		base := stores.current().Invariants(cur, nil)
		decs := [2]*interp.Prepared{interp.Prepare(cur), nil}
		var d revDiff
		for len(ops) >= 3 {
			k, op, b := int(ops[0])%len(cur.Procs), ops[1], ops[2]
			ops = ops[3:]
			next := ir.Clone(cur)
			mutateProc(next, k, op, b)
			if ir.Validate(next) != nil {
				return
			}
			d.compute(cur, next, true)
			if d.all {
				t.Fatal("a mutation that keeps the variable arena and procedure table scoped nothing")
			}
			scoped := stores.spare().InvariantsScoped(next, nil, base, d.procs)
			assertCounts(t, fmt.Sprintf("mutation %d of proc %d", op%6, k), scoped, check.AnalyzeInvariants(next))
			decs[1] = interp.PrepareFrom(decs[1], decs[0], next, d.nodes)
			if got, want := renderRuns(decs[1], inputs), renderRuns(interp.Prepare(next), inputs); got != want {
				t.Fatalf("mutation %d of proc %d: delta decode runs\n%s\nfresh decode runs\n%s", op%6, k, got, want)
			}
			stores.swap()
			base, cur = scoped, next
			decs[0], decs[1] = decs[1], decs[0]
		}
	})
}

// TestDiffFailsClosed pins every condition under which a diff scopes
// nothing, and that a scoped diff marks the old and the new owner of a
// moved node and a procedure whose record alone changed.
func TestDiffFailsClosed(t *testing.T) {
	p, err := ir.Build(scopedVetoSrc)
	if err != nil {
		t.Fatal(err)
	}
	var d revDiff
	same := ir.Clone(p)
	d.compute(p, same, true)
	if d.all || len(d.nodes) != 0 || slices.Contains(d.procs, true) {
		t.Fatalf("identical revisions: all=%v nodes=%v procs=%v", d.all, d.nodes, d.procs)
	}
	for name, mutate := range map[string]func(q *ir.Program){
		"vars":      func(q *ir.Program) { q.NewVar("extra", ir.VarGlobal, -1) },
		"var-field": func(q *ir.Program) { q.Vars[0].Init++ },
		"procs":     func(q *ir.Program) { q.Procs = append(q.Procs, &ir.Proc{Name: "x", Index: len(q.Procs)}) },
		"main":      func(q *ir.Program) { q.MainProc = (q.MainProc + 1) % len(q.Procs) },
		"index":     func(q *ir.Program) { q.Procs[0].Index = len(q.Procs) },
		"formals":   func(q *ir.Program) { g := q.ProcByName("g"); g.Formals = g.Formals[:1] },
	} {
		q := ir.Clone(p)
		mutate(q)
		if d.compute(p, q, true); !d.all {
			t.Errorf("%s: the diff scoped a change it cannot scope", name)
		}
	}
	if d.compute(p, ir.Clone(p), false); !d.all {
		t.Error("the diff scoped an attempt on a working revision not known to be valid")
	}

	q := ir.Clone(p)
	q.Procs[1].Name += "-renamed"
	if d.compute(p, q, true); d.all || !d.procs[1] || d.procs[0] || len(d.nodes) != 0 {
		t.Fatalf("record-only change: all=%v procs=%v nodes=%v", d.all, d.procs, d.nodes)
	}
	q = ir.Clone(p)
	var moved ir.NodeID = ir.NoNode
	for _, n := range q.Nodes {
		if n != nil && n.Kind == ir.NPrint && n.Proc == 0 {
			n.Proc, moved = 1, n.ID
			break
		}
	}
	if moved == ir.NoNode {
		t.Fatal("no print in procedure 0")
	}
	if d.compute(p, q, true); d.all || !d.procs[0] || !d.procs[1] || !slices.Equal(d.nodes, []ir.NodeID{moved}) {
		t.Fatalf("moved node: all=%v procs=%v nodes=%v", d.all, d.procs, d.nodes)
	}
}

// scopedVetoSrc calls g before main's correlated branches, so the
// restructuring of main never touches g.
const scopedVetoSrc = `
func g(a, b) { var s = a + b; print(s); print(a); return s; }
func main() {
	var x = input();
	var r = g(x, 5);
	var t = 0;
	if (x > 0) { t = 1; } else { t = 2; }
	if (t == 1) { print(1); } else { print(2); }
	print(r);
}`

// TestScopedVetoNamesUntouchedProcedure corrupts a procedure the apply
// did not touch, from the test hook that runs before the gates: once its
// nodes (a print bypassed, so it is unreachable), which the diff must mark,
// and once its record alone (a duplicated formal, so the other parameter
// is read before any assignment), which the diff must not scope at all.
// Either way the check gate vetoes with the kind and message a full report
// gives.
func TestScopedVetoNamesUntouchedProcedure(t *testing.T) {
	for _, c := range []struct {
		name, pass string
		corrupt    func(t *testing.T, p *ir.Program, g int)
	}{
		{"nodes", "unreachable-node", func(t *testing.T, p *ir.Program, g int) {
			for _, n := range p.ProcNodes(g) {
				if n.Kind == ir.NPrint && len(n.Preds) == 1 && p.Nodes[n.Preds[0]].Kind == ir.NAssign {
					p.RedirectSucc(n.Preds[0], n.ID, n.Succs[0])
					return
				}
			}
			t.Fatal("no print to bypass in g")
		}},
		{"record", "use-before-def", func(t *testing.T, p *ir.Program, g int) {
			pr := p.Procs[g]
			pr.Formals = []ir.VarID{pr.Formals[0], pr.Formals[0]}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			input, err := ir.Build(scopedVetoSrc)
			if err != nil {
				t.Fatal(err)
			}
			g := input.ProcByName("g").Index
			var applied, corrupted *ir.Program
			calls := 0
			setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error {
				if calls++; calls == 1 {
					applied = ir.Clone(scratch)
					c.corrupt(t, scratch, g)
					corrupted = ir.Clone(scratch)
				}
				return nil
			})
			res := Optimize(input, DriverOptions{Check: true, Verify: true})
			if applied == nil {
				t.Fatal("no apply was attempted")
			}
			var d revDiff
			if d.compute(input, applied, true); d.all || d.procs[g] {
				t.Fatalf("the apply itself touched g (all=%v procs=%v); the test exercises nothing", d.all, d.procs)
			}
			if err := ir.Validate(corrupted); err != nil {
				t.Fatalf("the corruption must keep the program valid: %v", err)
			}
			f, _ := check.AnalyzeInvariants(corrupted).FirstFinding(c.pass)
			want := "restructured program raised " + c.pass + " finding: " + f.Msg
			var fail *BranchFailure
			for _, r := range res.Reports {
				if r.Failure != nil {
					fail = r.Failure
				}
			}
			if fail == nil || fail.Kind != FailCheck || fail.Msg != want {
				t.Fatalf("veto %+v, want %s: %q", fail, FailCheck, want)
			}
		})
	}
}

// invalidWorkSrc calls g after main's branches, so the analysis never
// reaches the call; ICBE decides both analyzable branches, and the fold
// pass decides the second one when ICBE could not apply.
const invalidWorkSrc = `
func g(a, b) { var s = a + b; print(s); print(a); return s; }
func main() {
	var x = input();
	var t = 0;
	if (x > 0) { t = 1; } else { t = 2; }
	if (t == 1) { print(1); } else { print(2); }
	var y = byte(x);
	if (y < 300) { print(3); } else { print(4); }
	var r = g(x, 5);
	print(r);
}`

// damageID gives the first node of proc matching ok the ID of a deleted
// arena slot, an invalidity nodeChanged does not see, and returns the
// node's real slot.
func damageID(t *testing.T, p *ir.Program, proc int, ok func(*ir.Node) bool) ir.NodeID {
	t.Helper()
	hole := p.NewNode(ir.NNop, proc).ID
	p.DeleteNode(hole)
	for _, n := range p.ProcNodes(proc) {
		if ok(n) {
			slot := n.ID
			n.ID = hole
			return slot
		}
	}
	t.Fatal("no node to damage")
	return ir.NoNode
}

// repairOnce returns a hook repairing the damaged slot's ID in the first
// scratch it sees, so that attempt alone validates; its diff marks no
// change for the repair.
func repairOnce(slot ir.NodeID) func(*ir.Program, ir.NodeID) error {
	calls := 0
	return func(scratch *ir.Program, _ ir.NodeID) error {
		if calls++; calls == 1 {
			scratch.Nodes[slot].ID = slot
		}
		return nil
	}
}

// TestInvalidWorkRevisionIsNotScoped starts from inputs with one node ID
// damaged, which the first attempt's hook repairs — a change nodeChanged
// does not see, so the attempt's diff marks nothing for it. Only the rule
// that a working revision not known to be valid scopes nothing keeps each
// gate's result equal to a full computation's:
//   - check: a print of g carries a deleted slot's ID, which reachability
//     indexes, so the input counts one unreachable node in g; the adopted
//     revision's carried counts must equal a fresh run's;
//   - shadow, on an apply and on a fold with the check gate off: main's
//     call of g (invalidWorkSrc) carries it, so g's exit has no return point for the call
//     and every input faults; the repaired attempt runs cleanly, which the
//     oracle must see as changed fault behaviour, not carry the stale
//     return table into a delta decode that faults alike.
func TestInvalidWorkRevisionIsNotScoped(t *testing.T) {
	isPrint := func(n *ir.Node) bool { return n.Kind == ir.NPrint }
	isCall := func(n *ir.Node) bool { return n.Kind == ir.NCall }
	t.Run("check", func(t *testing.T) {
		input, err := ir.Build(scopedVetoSrc)
		if err != nil {
			t.Fatal(err)
		}
		g := input.ProcByName("g").Index
		slot := damageID(t, input, g, isPrint)
		if n := check.AnalyzeInvariants(input).ProcCounts("unreachable-node")[g]; n != 1 {
			t.Fatalf("the damaged input has %d unreachable nodes in g, want 1", n)
		}
		setHooks(t, nil, repairOnce(slot))
		opts := DriverOptions{Check: true, Verify: true}
		inputs := verifyInputs(opts)
		adoptions := 0
		testHookAdopted = func(work *ir.Program, base *check.Report, runs []shadowRun) {
			adoptions++
			checkAdopted(t, inputs, work, base, runs)
		}
		t.Cleanup(func() { testHookAdopted = nil })
		res := Optimize(input, opts)
		if adoptions == 0 || res.Optimized == 0 {
			t.Fatalf("%d adoptions, %d optimized: the repaired attempt was not adopted", adoptions, res.Optimized)
		}
		for k, n := range res.Stats.Failures {
			if n > 0 {
				t.Fatalf("%d %s failures: %v", n, k, res.Stats.Failures)
			}
		}
	})
	t.Run("shadow-apply", func(t *testing.T) {
		input, err := ir.Build(invalidWorkSrc)
		if err != nil {
			t.Fatal(err)
		}
		slot := damageID(t, input, input.ProcByName("main").Index, isCall)
		setHooks(t, nil, repairOnce(slot))
		res := Optimize(input, DriverOptions{Verify: true})
		var first *CondReport
		for i := range res.Reports {
			if r := &res.Reports[i]; first == nil && (r.Applied || r.Failure != nil) {
				first = r
			}
		}
		if first == nil || first.Failure == nil || first.Failure.Kind != FailDiffMismatch {
			t.Fatalf("repaired attempt: %+v, want a %s veto", first, FailDiffMismatch)
		}
	})
	t.Run("shadow-fold", func(t *testing.T) {
		input, err := ir.Build(invalidWorkSrc)
		if err != nil {
			t.Fatal(err)
		}
		// The applies keep the damage and fail validation, so the fold
		// pass starts from the damaged input.
		slot := damageID(t, input, input.MainProc, isCall)
		testHookAfterFold = repairOnce(slot)
		t.Cleanup(func() { testHookAfterFold = nil })
		res := Optimize(input, DriverOptions{Fold: true})
		if res.Optimized != 0 || res.Stats.FoldAttempted == 0 || res.Stats.FoldApplied != 0 {
			t.Fatalf("%d applied, %d folds attempted, %d adopted: want the repaired fold vetoed",
				res.Optimized, res.Stats.FoldAttempted, res.Stats.FoldApplied)
		}
	})
}
