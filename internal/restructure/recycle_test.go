package restructure

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/pred"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// miscompilePrints changes every print node's value, so any run that
// prints sees different output while the graph and its invariants stay
// intact: only shadow execution can veto it.
func miscompilePrints(p *ir.Program) {
	for _, n := range p.Nodes {
		if n != nil && n.Kind == ir.NPrint {
			n.Val = ir.ConstOp(-987654321)
		}
	}
}

// negateAsserts flips every assert's predicate: the graph stays valid, but
// the oracle proves the flipped asserts on feasible arms can never hold, so
// the sccp-consistency invariant pass vetoes the attempt.
func negateAsserts(p *ir.Program) {
	for _, n := range p.Nodes {
		if n != nil && n.Kind == ir.NAssert {
			n.APred = n.APred.Negate()
		}
	}
}

// sccpFacts renders an oracle result's observable facts.
func sccpFacts(p *ir.Program, s *check.SCCP) string {
	var b strings.Builder
	for _, n := range p.Nodes {
		if n != nil {
			fmt.Fprintf(&b, "%d:%v:%v ", n.ID, s.Reachable(n.ID), s.BranchOutcome(n.ID))
		}
	}
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "%s=%v ", v.Name, s.VarValue(v.ID))
	}
	fmt.Fprint(&b, s.MustFailAsserts())
	return b.String()
}

// checkAdopted asserts that the baselines the gates carry into the next
// attempt equal a fresh computation on the adopted revision.
func checkAdopted(t *testing.T, inputs [][]int64, work *ir.Program, base *check.Report, runs []shadowRun) {
	t.Helper()
	if base == nil || runs == nil {
		t.Fatal("adopted revision carries no check baseline or no shadow runs")
	}
	fresh := check.AnalyzeInvariants(work)
	assertCounts(t, "carried baseline", base, fresh)
	if got, want := sccpFacts(work, base.SCCP), sccpFacts(work, fresh.SCCP); got != want {
		t.Fatal("carried SCCP facts differ from a fresh run on the adopted revision")
	}
	for i, r := range runs {
		if !r.done {
			continue
		}
		res, err := interp.Run(work, interp.Options{Input: inputs[i], MaxSteps: verifyMaxSteps})
		if errors.Is(r.err, interp.ErrStepLimit) {
			if !errors.Is(err, interp.ErrStepLimit) {
				t.Fatalf("input %d: carried step-limit skip, fresh run finished", i)
			}
			continue
		}
		if fmt.Sprint(r.err) != fmt.Sprint(err) || !equalInt64s(r.res.Output, res.Output) ||
			r.res.Operations != res.Operations || r.res.Steps != res.Steps {
			t.Fatalf("input %d: carried run (%v, %d ops) differs from a fresh run (%v, %d ops)",
				i, r.err, r.res.Operations, err, res.Operations)
		}
	}
}

// TestRecycledRevisionsKeepGateState drives consecutive attempts through
// different gates — a check pass that then fails shadow verification, a
// check veto, then a pass, over and over — so recycled programs come back as
// scratch clones while a stale pending state could still match their
// pointers. Every adopted revision's carried baselines must equal a fresh
// computation, and the final program and reports must equal those of a run
// that refuses the same attempts without reaching the gates.
func TestRecycledRevisionsKeepGateState(t *testing.T) {
	w := progs.ByName("goboard")
	cases := []struct {
		name         string
		src          string
		inputs       [][]int64
		applies      bool // inject into correlation applies
		folds        bool // inject into fold attempts
		wantFailures map[FailureKind]int
	}{
		{name: "applies", src: randprog.Scale(2, randprog.ScaleConfig{Leaves: 8, LeafStmts: 30, Hubs: 4,
			Calls: 4, Conds: 3, ChainLeaves: 3, ChainLen: 4}), applies: true,
			wantFailures: map[FailureKind]int{FailDiffMismatch: 3, FailCheck: 3}},
		{name: "folds", src: w.Source, inputs: [][]int64{w.Train}, folds: true,
			wantFailures: map[FailureKind]int{FailFold: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := DriverOptions{
				Analysis: analysis.Options{Interprocedural: true, ModSummaries: true,
					TerminationLimit: 1000, MemoSummaries: true},
				Verify: true, Check: true, Fold: true, VerifyInputs: c.inputs,
			}
			inputs := verifyInputs(opts)
			build := func() *ir.Program {
				p, err := ir.Build(c.src)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			t.Cleanup(func() {
				testHookAfterApply, testHookAfterFold, testHookAdopted = nil, nil, nil
			})
			// hook cycles through the three outcomes by attempt number:
			// attempt 1 passes the check gate and fails shadow execution,
			// attempt 2 fails the check gate, attempt 3 passes.
			var calls int
			hook := func(scratch *ir.Program, _ ir.NodeID) error {
				calls++
				switch calls % 3 {
				case 1:
					miscompilePrints(scratch)
				case 2:
					negateAsserts(scratch)
				}
				return nil
			}
			// refuse rejects the same attempts before any gate runs.
			refuse := func(*ir.Program, ir.NodeID) error {
				calls++
				if calls%3 != 0 {
					return errors.New("refused")
				}
				return nil
			}
			install := func(h func(*ir.Program, ir.NodeID) error) {
				calls = 0
				testHookAfterApply, testHookAfterFold = nil, nil
				if c.applies {
					testHookAfterApply = h
				}
				if c.folds {
					testHookAfterFold = h
				}
			}

			install(hook)
			adoptions := 0
			testHookAdopted = func(work *ir.Program, base *check.Report, runs []shadowRun) {
				adoptions++
				checkAdopted(t, inputs, work, base, runs)
			}
			got := Optimize(build(), opts)
			for k, n := range c.wantFailures {
				if got.Stats.Failures[k] < n {
					t.Fatalf("failures %v, want at least %d %s: the gates were not all exercised",
						got.Stats.Failures, n, k)
				}
			}
			if adoptions < 3 {
				t.Fatalf("%d adoptions, want several", adoptions)
			}

			install(refuse)
			testHookAdopted = nil
			want := Optimize(build(), opts)

			if got.Program.Dump() != want.Program.Dump() {
				t.Fatal("final program differs from the reference run")
			}
			if len(got.Reports) != len(want.Reports) {
				t.Fatalf("%d reports, reference %d", len(got.Reports), len(want.Reports))
			}
			for i := range got.Reports {
				g, r := got.Reports[i], want.Reports[i]
				if g.Failure != nil && r.Failure != nil && !g.Applied && !r.Applied {
					continue // a refused attempt: only the refusing gate differs
				}
				if !reflect.DeepEqual(g, r) {
					t.Fatalf("report %d: %+v, reference %+v", i, g, r)
				}
			}
			// Both runs cross-check every conditional against the same
			// working revisions, so the oracle's verdicts agree too.
			oracle := func(s DriverStats) []int {
				return []int{s.SCCPAgreements, s.SCCPDisagreements, s.SCCPVacuous, s.SCCPDecided,
					s.SCCPResidual, s.SCCPResidualBefore, s.SCCPResidualAfter}
			}
			if got.Optimized != want.Optimized || got.Stats.FoldApplied != want.Stats.FoldApplied ||
				!reflect.DeepEqual(oracle(got.Stats), oracle(want.Stats)) {
				t.Fatalf("optimized %d folds %d oracle %v, reference %d folds %d oracle %v", got.Optimized,
					got.Stats.FoldApplied, oracle(got.Stats), want.Optimized, want.Stats.FoldApplied, oracle(want.Stats))
			}
		})
	}
}

// TestGatesKeyByRevision recycles one program pointer for a different
// program under a new revision number: both gates must treat it as a new
// revision (recompute the oracle, re-run the baseline) even though the
// pointer is the one their carried state was computed on.
func TestGatesKeyByRevision(t *testing.T) {
	build := func(src string) *ir.Program {
		p, err := ir.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	decided := build(`func main() { var x = 1; if (x == 1) { print(1); } else { print(2); } }`)
	open := build(`func main() { var x = input(); if (x == 1) { print(1); } else { print(2); } }`)
	var branch ir.NodeID
	for _, n := range decided.Nodes {
		if n != nil && n.Kind == ir.NBranch {
			branch = n.ID
		}
	}

	var stats DriverStats
	p := ir.Clone(decided)
	g := newCheckGate(p, 1, &stats)
	o := newShadowOracle(verifyInputs(DriverOptions{}))
	if f := o.verify(p, 1, ir.Clone(p), 2, nil, &stats); f != nil {
		t.Fatalf("identity apply failed: %v", f)
	}
	if g.sccpFor(p, 1).BranchOutcome(branch) == pred.Unknown {
		t.Fatal("oracle does not decide the constant branch")
	}

	// Recycle p: same pointer, different program, new revision.
	ir.CloneInto(p, open)
	runs := stats.CheckRuns
	if g.sccpFor(p, 3).BranchOutcome(branch) != pred.Unknown || stats.CheckRuns != runs+1 {
		t.Fatal("check gate reused the oracle of the recycled pointer's earlier revision")
	}
	if g.sccpFor(p, 3); stats.CheckRuns != runs+1 {
		t.Fatal("check gate recomputed an unchanged revision")
	}
	post := ir.Clone(p)
	if f := o.verify(p, 3, post, 4, nil, &stats); f != nil {
		t.Fatalf("baseline of the recycled pointer's earlier revision was reused: %v", f)
	}
}
