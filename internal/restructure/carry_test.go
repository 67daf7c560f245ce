package restructure

import (
	"errors"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/progs"
)

// miscompilePrint changes the output of the first print node of the
// program while keeping the graph valid: a constant operand shifts, a
// variable operand becomes a sentinel constant.
func miscompilePrint(p *ir.Program) bool {
	for _, n := range p.Nodes {
		if n == nil || n.Kind != ir.NPrint {
			continue
		}
		if n.Val.IsConst {
			n.Val.Const += 1000
		} else {
			n.Val = ir.ConstOp(-987654321)
		}
		return true
	}
	return false
}

// sameOutput fails the test when the two programs print different output
// on the input.
func sameOutput(t *testing.T, got, want *ir.Program, in []int64) {
	t.Helper()
	g, gerr := interp.Run(got, interp.Options{Input: in, MaxSteps: 1 << 24})
	w, werr := interp.Run(want, interp.Options{Input: in, MaxSteps: 1 << 24})
	if gerr != nil || werr != nil {
		t.Fatalf("runs fault: %v / %v", gerr, werr)
	}
	if !equalInt64s(g.Output, w.Output) {
		t.Fatalf("output changed: %v, want %v", g.Output, w.Output)
	}
}

// TestCarriedBaselineCatchesLaterMiscompile injects an output-changing
// miscompile into the second apply attempt. The first attempt was adopted,
// so the pre-apply side of the second comparison is the carried baseline
// (the first attempt's post-apply runs), not a fresh run; it must still
// veto the miscompile while the other applies commit.
func TestCarriedBaselineCatchesLaterMiscompile(t *testing.T) {
	calls := 0
	setHooks(t, nil, func(scratch *ir.Program, _ ir.NodeID) error {
		calls++
		if calls == 2 && !miscompilePrint(scratch) {
			t.Fatal("no print node to miscompile")
		}
		return nil
	})
	res := Optimize(buildSafety(t), DriverOptions{Verify: true})
	if n := countKind(res, FailDiffMismatch); n != 1 {
		t.Fatalf("diff-mismatch failures = %d (stats %v), want 1", n, res.Stats.Failures)
	}
	var applied []bool
	for _, r := range res.Reports {
		if r.Applied || r.Failure != nil {
			applied = append(applied, r.Applied)
		}
	}
	if len(applied) != 3 || !applied[0] || applied[1] || !applied[2] {
		t.Fatalf("apply outcomes = %v, want [true false true]", applied)
	}
	sameOutput(t, res.Program, buildSafety(t), nil)
}

// TestCarriedBaselineCatchesFoldMiscompile does the same for the fold
// pass: goboard adopts a run of folds with no vetoes, so the second fold
// attempt is verified against the first adopted fold's carried runs.
func TestCarriedBaselineCatchesFoldMiscompile(t *testing.T) {
	w := progs.ByName("goboard")
	opts := DriverOptions{
		Analysis: analysis.Options{Interprocedural: true, ModSummaries: true,
			TerminationLimit: 1000, MemoSummaries: true},
		Fold:         true,
		VerifyInputs: [][]int64{w.Train},
	}
	build := func() *ir.Program {
		p, err := ir.Build(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := Optimize(build(), opts)
	if base.Stats.FoldApplied < 3 || len(base.Stats.Failures) != 0 {
		t.Fatalf("baseline folds = %d, failures %v; want ≥ 3 clean folds",
			base.Stats.FoldApplied, base.Stats.Failures)
	}

	calls := 0
	testHookAfterFold = func(scratch *ir.Program, _ ir.NodeID) error {
		calls++
		if calls == 2 && !miscompilePrint(scratch) {
			t.Fatal("no print node to miscompile")
		}
		return nil
	}
	t.Cleanup(func() { testHookAfterFold = nil })
	res := Optimize(build(), opts)
	// A changed print constant is invisible to validation, the invariant
	// passes and the residual re-check: only shadow execution can veto it.
	if n := res.Stats.Failures[FailFold]; n != 1 || len(res.Stats.Failures) != 1 {
		t.Fatalf("failures = %v, want exactly one fold veto", res.Stats.Failures)
	}
	if res.Stats.FoldApplied < base.Stats.FoldApplied-1 {
		t.Fatalf("folds applied = %d after one veto, baseline %d", res.Stats.FoldApplied, base.Stats.FoldApplied)
	}
	sameOutput(t, res.Program, build(), w.Train)
}

// TestShadowOracleReusesAdoptedRuns pins the carried baseline itself: after
// an adopt, the next comparison reads the adopted attempt's post-apply runs
// (no re-execution of the working program) and still catches a miscompile.
func TestShadowOracleReusesAdoptedRuns(t *testing.T) {
	var stats DriverStats
	o := newShadowOracle(verifyInputs(DriverOptions{}))
	p0 := buildSafety(t)
	p1 := ir.Clone(p0)
	if f := o.verify(p0, 1, p1, 2, nil, &stats); f != nil {
		t.Fatalf("identity apply failed: %v", f)
	}
	o.adopt(2)
	if o.rev != 2 {
		t.Fatal("adopt did not promote the verified clone's runs")
	}
	carried := make([]*interp.Result, len(o.runs))
	for i, r := range o.runs {
		if !r.done {
			t.Fatalf("input %d not carried", i)
		}
		carried[i] = r.res
	}
	p2 := ir.Clone(p1)
	miscompilePrint(p2)
	f := o.verify(p1, 2, p2, 3, nil, &stats)
	if f == nil || f.Kind != FailDiffMismatch {
		t.Fatalf("carried baseline missed the miscompile: %v", f)
	}
	for i, r := range o.runs {
		if r.res != carried[i] {
			t.Fatalf("input %d: baseline re-executed instead of reused", i)
		}
	}
	// The first input already prints the wrong value.
	if want := len(o.inputs) + 1; stats.VerifyRuns != want {
		t.Fatalf("VerifyRuns = %d, want %d (one per compared input)", stats.VerifyRuns, want)
	}
	// A rejected attempt's runs never become a baseline, even when the
	// driver adopts its revision number.
	o.adopt(3)
	if o.rev != 2 || o.runs[0].res != carried[0] {
		t.Fatal("adopting the unchanged working program replaced its baseline")
	}
}

// TestCarryStepBudgetBoundary: a post-apply run is reused as the next
// baseline only within verifyMaxSteps. One step over, a fresh baseline run
// would have stopped at the budget, so the carried run must be the same
// step-limit skip and the input is not compared.
func TestCarryStepBudgetBoundary(t *testing.T) {
	at := carry(&interp.Result{Steps: verifyMaxSteps}, nil)
	if !at.done || at.err != nil {
		t.Fatalf("run at the budget not carried as a baseline: %+v", at)
	}
	over := carry(&interp.Result{Steps: verifyMaxSteps + 1}, nil)
	if !over.done || !errors.Is(over.err, interp.ErrStepLimit) {
		t.Fatalf("run over the budget carried as a baseline: %+v", over)
	}

	// Wire the over-budget run in as the carried baseline of every input:
	// a miscompile then goes uncompared, exactly as with a fresh run that
	// exhausted its budget.
	var stats DriverStats
	p1 := buildSafety(t)
	o := newShadowOracle(verifyInputs(DriverOptions{}))
	o.rev, o.runs = 1, make([]shadowRun, len(o.inputs))
	for i := range o.runs {
		res, _ := interp.Run(p1, interp.Options{Input: o.inputs[i]})
		res.Steps = verifyMaxSteps + 1
		o.runs[i] = carry(res, nil)
	}
	p2 := ir.Clone(p1)
	miscompilePrint(p2)
	if f := o.verify(p1, 1, p2, 2, nil, &stats); f != nil {
		t.Fatalf("over-budget carried run was used as a baseline: %v", f)
	}
	if stats.VerifyRuns != len(o.inputs) {
		t.Fatalf("VerifyRuns = %d, want %d", stats.VerifyRuns, len(o.inputs))
	}
}
