// Package check is the static verification layer of the ICBE pipeline: a
// whole-program forward oracle in the Wegman–Zadeck sparse conditional
// constant propagation (SCCP) style, plus a registry of lint passes over
// the ICFG.
//
// The package is the static counterpart of the dynamic shadow-execution
// oracle in internal/restructure: the demand-driven backward correlation
// analysis proves branch outcomes along incoming paths, SCCP proves
// variable constancy and node reachability forward, and the two must never
// contradict each other. A contradiction (CrossCheck), or a lint invariant
// that held before a restructuring and fails after it, indicates a compiler
// bug; the optimization driver uses both as apply gates.
//
// Passes come in two kinds. Invariant passes must report zero findings on
// every well-formed program — compiled seed programs and correctly
// restructured ones alike — so any finding is a defect. Diagnostic passes
// report interesting-but-legal facts (a temp that is never read, a branch
// whose condition SCCP proves constant); they feed metrics such as the ICBE
// recall counter and never gate an apply.
package check

import (
	"fmt"
	"sort"

	"icbe/internal/ir"
)

// Kind classifies a lint pass.
type Kind int

const (
	// Invariant passes must be finding-free on well-formed programs; the
	// driver's check gate treats a new finding as a contained failure.
	Invariant Kind = iota
	// Diagnostic passes report legal-but-notable facts and never gate.
	Diagnostic
)

func (k Kind) String() string {
	switch k {
	case Invariant:
		return "invariant"
	case Diagnostic:
		return "diagnostic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Finding is one lint result.
type Finding struct {
	// Pass is the reporting pass's name.
	Pass string
	// Node anchors the finding in the ICFG (NoNode for whole-program
	// findings such as structural violations).
	Node ir.NodeID
	// Line is the source line of Node, when known.
	Line int
	// Msg describes the finding (one line).
	Msg string
}

func (f Finding) String() string {
	if f.Node == ir.NoNode {
		return fmt.Sprintf("%s: %s", f.Pass, f.Msg)
	}
	return fmt.Sprintf("%s: node %d (line %d): %s", f.Pass, int(f.Node), f.Line, f.Msg)
}

// Context carries the shared analysis state a pass runs against. The SCCP
// result is computed once per suite run and shared by every pass, and so is
// the procedure index the structural passes build on first use.
type Context struct {
	Prog *ir.Program
	SCCP *SCCP
	idx  *procIndex
	// validated marks verdict as the caller's ir.Validate result for Prog,
	// which the structure pass reports instead of validating again.
	validated bool
	verdict   error
}

// Pass is one registered lint pass. Run must be read-only on the program,
// deterministic, and must not panic on malformed graphs (the fuzz harness
// feeds it mutated ones).
type Pass interface {
	Name() string
	Kind() Kind
	Run(cx *Context) []Finding
}

// registry holds the built-in passes in registration order; the order is
// fixed so reports and gate comparisons are deterministic.
var registry []Pass

// Register appends a pass to the registry. The built-in passes register
// from init; tests may add their own.
func Register(p Pass) { registry = append(registry, p) }

// Passes returns the registered passes in registration order.
func Passes() []Pass { return append([]Pass(nil), registry...) }

// Report is the outcome of running a pass suite over one program.
type Report struct {
	// Findings holds every finding, grouped by pass in registry order and
	// sorted by node within a pass.
	Findings []Finding
	// PerPass maps each executed pass to its finding count (zero entries
	// included, so gate comparisons see every pass).
	PerPass map[string]int
	// Invariants and Diagnostics total the findings by pass kind.
	Invariants  int
	Diagnostics int
	// SCCP is the shared oracle result the passes ran against.
	SCCP *SCCP
}

// Count returns the finding count of the named pass.
func (r *Report) Count(pass string) int { return r.PerPass[pass] }

// FindingsOf returns the findings of the named pass.
func (r *Report) FindingsOf(pass string) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Pass == pass {
			out = append(out, f)
		}
	}
	return out
}

// Analyze runs every registered pass over the program.
func Analyze(p *ir.Program) *Report { return run(p, nil, false) }

// AnalyzeInvariants runs only the invariant passes — the gate set the
// optimization driver compares before and after each restructuring.
func AnalyzeInvariants(p *ir.Program) *Report { return run(p, nil, true) }

// AnalyzeWith runs the given passes against a caller-supplied SCCP result
// (computed with RunSCCP), avoiding a recomputation when the caller already
// holds one for this exact program.
func AnalyzeWith(p *ir.Program, s *SCCP, passes []Pass) *Report {
	return runPasses(p, s, passes)
}

// Invariants runs the invariant passes like AnalyzeInvariants, with the
// SCCP run's storage drawn from the store (so the report is valid until the
// store's next run). verdict is the caller's ir.Validate result for p: the
// structure pass reports it instead of validating the program again.
func (st *Store) Invariants(p *ir.Program, verdict error) *Report {
	cx := &Context{Prog: p, SCCP: st.RunSCCP(p), validated: true, verdict: verdict}
	return cx.run(selectPasses(true))
}

func run(p *ir.Program, s *SCCP, invariantOnly bool) *Report {
	return runPasses(p, s, selectPasses(invariantOnly))
}

func selectPasses(invariantOnly bool) []Pass {
	var passes []Pass
	for _, ps := range registry {
		if invariantOnly && ps.Kind() != Invariant {
			continue
		}
		passes = append(passes, ps)
	}
	return passes
}

func runPasses(p *ir.Program, s *SCCP, passes []Pass) *Report {
	if s == nil {
		s = RunSCCP(p)
	}
	cx := &Context{Prog: p, SCCP: s}
	return cx.run(passes)
}

func (cx *Context) run(passes []Pass) *Report {
	s := cx.SCCP
	rep := &Report{PerPass: make(map[string]int, len(passes)), SCCP: s}
	for _, ps := range passes {
		fs := ps.Run(cx)
		sort.SliceStable(fs, func(i, j int) bool { return fs[i].Node < fs[j].Node })
		rep.PerPass[ps.Name()] = len(fs)
		rep.Findings = append(rep.Findings, fs...)
		if ps.Kind() == Invariant {
			rep.Invariants += len(fs)
		} else {
			rep.Diagnostics += len(fs)
		}
	}
	return rep
}
