package restructure

import (
	"time"

	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/ir"
)

// testHookCheckAnswers lets tests substitute the answer set the cross-check
// sees for one conditional, simulating a buggy backward analysis without
// having one (see SetFaultInjection). It must be nil outside tests.
var testHookCheckAnswers func(p *ir.Program, b ir.NodeID, ans analysis.AnswerSet) analysis.AnswerSet

// checkGate is the static verification layer of the driver
// (DriverOptions.Check): the forward SCCP oracle cross-checks every
// demand-driven answer before its restructuring is attempted, and the
// invariant lint passes re-run on each scratch clone, vetoing any apply that
// raises a finding the working program did not have. Like the shadow oracle
// it gates transactionally — a veto discards the scratch clone — but it is
// static: no inputs are run, so it also covers paths shadow vectors miss.
//
// Each attempt re-runs the procedure passes only on the procedures its
// diff changed; the report of the working revision carries every
// procedure's counts, so the other procedures' counts are taken from it.
//
// Revisions are keyed by the driver's revision numbers, never by program
// pointers, which recycling reuses.
type checkGate struct {
	stats  *DriverStats
	stores storePair
	// base is working revision rev's invariant report, in the current
	// store: its SCCP result is the cross-check oracle, its per-pass
	// counts the reference a scratch clone must not exceed, and its
	// per-procedure counts the ones a scoped attempt carries.
	rev  int
	base *check.Report
	// inputValid records that the input working revision passed
	// ir.Validate.
	inputValid bool
	// pending holds the scratch clone's report between the gate check and
	// the driver's commit, so adoption reuses it instead of re-analyzing.
	// It lives in the spare store and is cleared by the next check.
	pendingRev int
	pending    *check.Report
}

// storePair owns the SCCP storage of two invariant reports: the working
// revision's and the current attempt's. An attempt analyzes into the spare
// store; adopting it swaps the two, and a vetoed attempt's store is simply
// the next attempt's spare. The check gate and the fold pass each keep one.
type storePair struct {
	stores [2]check.Store
	cur    int
}

func (s *storePair) current() *check.Store { return &s.stores[s.cur] }
func (s *storePair) spare() *check.Store   { return &s.stores[1-s.cur] }
func (s *storePair) swap()                 { s.cur = 1 - s.cur }

// newCheckGate validates and analyzes the input working program and
// records its invariant baseline.
func newCheckGate(work *ir.Program, rev int, stats *DriverStats) *checkGate {
	g := &checkGate{stats: stats}
	t0 := time.Now()
	verdict := ir.Validate(work)
	g.inputValid = verdict == nil
	g.base = g.analyze(work, g.stores.current(), verdict, nil, t0)
	g.rev = rev
	stats.CheckFindingsPre = len(g.base.Findings)
	return g
}

// analyze runs the invariant passes into the given store, timed from t0.
// verdict is p's ir.Validate result, which the structure pass reports.
// With a scoping diff against the working revision, the procedure passes
// run only on the procedures it changed.
func (g *checkGate) analyze(p *ir.Program, st *check.Store, verdict error, diff *revDiff, t0 time.Time) *check.Report {
	rep := st.InvariantsScoped(p, verdict, g.base, diff.changedProcs())
	g.stats.CheckRuns++
	g.stats.CheckWall += time.Since(t0)
	return rep
}

// sccpFor returns the oracle for the given working-program revision,
// recomputing it when the program changed under the gate.
func (g *checkGate) sccpFor(p *ir.Program, rev int) *check.SCCP {
	if g.rev != rev {
		t0 := time.Now()
		g.base = g.analyze(p, g.stores.current(), ir.Validate(p), nil, t0)
		g.rev = rev
	}
	return g.base.SCCP
}

// crossCheck compares one analyzed conditional's root answer set against the
// oracle before any restructuring is attempted. A disagreement is a
// contained FailCheck: the conditional is refused, everything else proceeds.
func (g *checkGate) crossCheck(work *ir.Program, rev int, cr *condResult) *BranchFailure {
	ans := cr.rep.Answers
	if testHookCheckAnswers != nil {
		ans = testHookCheckAnswers(work, cr.b, ans)
	}
	verdict, cf := check.CrossCheck(work, g.sccpFor(work, rev), cr.b, ans)
	switch verdict {
	case check.VerdictAgree:
		g.stats.SCCPAgreements++
		g.stats.SCCPDecided++
	case check.VerdictICBEOnly:
		// A decided claim the oracle could not grade: part of the recall
		// denominator but neither an agreement nor a veto.
		g.stats.SCCPDecided++
	case check.VerdictVacuous:
		g.stats.SCCPVacuous++
	case check.VerdictDisagree:
		g.stats.SCCPDisagreements++
		g.stats.SCCPDecided++
		return &BranchFailure{Kind: FailCheck, Cond: cr.b, Line: cr.rep.Line,
			Msg: "demand-driven answer contradicts the SCCP oracle", Err: cf}
	}
	return nil
}

// checkApply runs the invariant passes on the scratch clone, which the
// driver has just validated and diffed against working revision workRev,
// and vetoes the apply when any pass reports more findings than the
// working program's baseline. A veto's message comes from the full report,
// whichever procedures the scoped run re-checked. On success the scratch
// report is stashed for adopt.
func (g *checkGate) checkApply(scratch *ir.Program, rev, workRev int, diff *revDiff, cr *condResult) *BranchFailure {
	g.pendingRev, g.pending = 0, nil
	if g.rev != workRev {
		diff = nil // the baseline is another revision's: nothing to carry
	}
	rep := g.analyze(scratch, g.stores.spare(), nil, diff, time.Now())
	if pass, f, bad := regressed(scratch, rep, g.base); bad {
		return &BranchFailure{Kind: FailCheck, Cond: cr.b, Line: cr.rep.Line,
			Msg: "restructured program raised " + pass + " finding: " + f.Msg}
	}
	g.pendingRev, g.pending = rev, rep
	return nil
}

// regressed finds the first pass, in registry order (not map order, so the
// reported pass is deterministic when several regress at once), whose
// count in rep exceeds base's, and its first finding from p's full report.
func regressed(p *ir.Program, rep, base *check.Report) (string, check.Finding, bool) {
	for _, ps := range check.Passes() {
		pass := ps.Name()
		n, ok := rep.PerPass[pass]
		if !ok || n <= base.PerPass[pass] {
			continue
		}
		f, _ := rep.Complete(p).FirstFinding(pass)
		return pass, f, true
	}
	return "", check.Finding{}, false
}

// adopt promotes the stashed scratch report to the gate's baseline when the
// driver commits that revision as the new working program; the store of the
// superseded report becomes the next attempt's.
func (g *checkGate) adopt(rev int) {
	if g.pendingRev == rev {
		g.stores.swap()
		g.rev, g.base = rev, g.pending
	}
	g.pendingRev, g.pending = 0, nil
}

// report returns the gate's invariant report of the given working revision
// without running the passes, or nil when the gate holds another revision.
// The report borrows the gate's storage: it stays valid until the gate's
// next analysis of a working revision, and its findings may be partial
// (see check.Report.Complete).
func (g *checkGate) report(rev int) *check.Report {
	if g == nil || g.rev != rev {
		return nil
	}
	return g.base
}

// finish computes the end-of-run counters: the recall ratio (graded fraction
// of the decided, non-vacuous claims), the residual metric (analyzable
// branches of the final program the oracle still decides — branches ICBE
// could have eliminated), and the residual invariant finding count.
func (g *checkGate) finish(work *ir.Program, rev int) {
	s := g.sccpFor(work, rev)
	if g.stats.SCCPDecided > 0 {
		g.stats.SCCPRecall = float64(g.stats.SCCPAgreements+g.stats.SCCPDisagreements) /
			float64(g.stats.SCCPDecided)
	}
	g.stats.SCCPResidual = check.RecallCount(work, s)
	total := 0
	for _, n := range g.base.PerPass {
		total += n
	}
	g.stats.CheckFindingsPost = total
}
