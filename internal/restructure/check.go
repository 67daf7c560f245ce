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
// Revisions are keyed by the driver's revision numbers, never by program
// pointers, which recycling reuses.
type checkGate struct {
	stats  *DriverStats
	stores storePair
	// sccp is the oracle for working revision rev, in the current store;
	// baseline holds its per-pass invariant finding counts, the reference a
	// scratch clone must not exceed.
	rev      int
	sccp     *check.SCCP
	baseline map[string]int
	// pending holds the scratch clone's report between the gate check and
	// the driver's commit, so adoption reuses it instead of re-analyzing.
	// It lives in the spare store and is cleared by the next check.
	pendingRev      int
	pendingSCCP     *check.SCCP
	pendingBaseline map[string]int
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

// newCheckGate analyzes the input working program and records its invariant
// baseline.
func newCheckGate(work *ir.Program, rev int, stats *DriverStats) *checkGate {
	g := &checkGate{stats: stats}
	rep := g.analyze(work, g.stores.current(), false)
	g.rev, g.sccp, g.baseline = rev, rep.SCCP, rep.PerPass
	stats.CheckFindingsPre = len(rep.Findings)
	return g
}

// analyze runs the invariant passes into the given store. validated
// reports that the driver has just validated p, so the structure pass takes
// that clean verdict instead of validating again.
func (g *checkGate) analyze(p *ir.Program, st *check.Store, validated bool) *check.Report {
	t0 := time.Now()
	var verdict error
	if !validated {
		verdict = ir.Validate(p)
	}
	rep := st.Invariants(p, verdict)
	g.stats.CheckRuns++
	g.stats.CheckWall += time.Since(t0)
	return rep
}

// sccpFor returns the oracle for the given working-program revision,
// recomputing it when the program changed under the gate.
func (g *checkGate) sccpFor(p *ir.Program, rev int) *check.SCCP {
	if g.rev != rev {
		rep := g.analyze(p, g.stores.current(), false)
		g.rev, g.sccp, g.baseline = rev, rep.SCCP, rep.PerPass
	}
	return g.sccp
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
// driver has just validated, and vetoes the apply when any pass reports more
// findings than the working program's baseline. On success the scratch
// report is stashed for adopt.
func (g *checkGate) checkApply(scratch *ir.Program, rev int, cr *condResult) *BranchFailure {
	g.pendingRev, g.pendingSCCP, g.pendingBaseline = 0, nil, nil
	rep := g.analyze(scratch, g.stores.spare(), true)
	// Registry order, not map order, so the reported pass is deterministic
	// when several regress at once.
	for _, p := range check.Passes() {
		pass := p.Name()
		n, ok := rep.PerPass[pass]
		if !ok || n <= g.baseline[pass] {
			continue
		}
		f, _ := rep.FirstFinding(pass)
		return &BranchFailure{Kind: FailCheck, Cond: cr.b, Line: cr.rep.Line,
			Msg: "restructured program raised " + pass + " finding: " + f.Msg}
	}
	g.pendingRev, g.pendingSCCP, g.pendingBaseline = rev, rep.SCCP, rep.PerPass
	return nil
}

// adopt promotes the stashed scratch report to the gate's baseline when the
// driver commits that revision as the new working program; the store of the
// superseded report becomes the next attempt's.
func (g *checkGate) adopt(rev int) {
	if g.pendingRev == rev {
		g.stores.swap()
		g.rev, g.sccp, g.baseline = rev, g.pendingSCCP, g.pendingBaseline
	}
	g.pendingRev, g.pendingSCCP, g.pendingBaseline = 0, nil, nil
}

// report returns the gate's invariant report of the given working revision
// without running the passes, or nil when the gate holds another revision.
// The report borrows the gate's storage: it stays valid until the gate's
// next analysis of a working revision.
func (g *checkGate) report(rev int) *check.Report {
	if g == nil || g.rev != rev {
		return nil
	}
	return &check.Report{SCCP: g.sccp, PerPass: g.baseline}
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
	for _, n := range g.baseline {
		total += n
	}
	g.stats.CheckFindingsPost = total
}
