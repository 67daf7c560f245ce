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
	// store provides the index's storage and the report's per-procedure
	// counts; only, when set, restricts the index to the procedures a
	// scoped run re-checks.
	store *Store
	only  []bool
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
	// procCounts holds, for each procedure pass procPasses names, the
	// finding count of every procedure position. Reports keep both in
	// their store's storage.
	procPasses []string
	procCounts [][]int32
	// scoped marks a report from InvariantsScoped: its counts are exact,
	// but Findings holds only the whole-program passes' findings (see
	// Complete).
	scoped  bool
	verdict error
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

// ProcCounts returns the per-procedure finding counts of the named
// procedure pass (unreachable-node, use-before-def), indexed by procedure
// position, or nil when the report holds none for it. The slice borrows
// the report's storage.
func (r *Report) ProcCounts(pass string) []int32 {
	for k, name := range r.procPasses {
		if name == pass {
			return r.procCounts[k]
		}
	}
	return nil
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
	return st.InvariantsScoped(p, verdict, nil, nil)
}

// InvariantsScoped runs the invariant passes like Invariants, but runs the
// procedure passes (unreachable-node, use-before-def) only on the
// procedures changed marks by position, taking every other procedure's
// counts from base. The whole-program passes run in full.
//
// The caller guarantees that p and base's program both passed ir.Validate,
// have equal variable arenas and procedure tables whose indexes are their
// positions, and differ only in the marked procedures' nodes and records;
// a procedure pass's result on an unchanged procedure is then the same on
// both. base must not come from st. Without changed marks, or without
// base's per-procedure counts for every procedure, the run is a full one.
//
// The counts of a scoped report are exact, but its Findings hold only the
// whole-program passes' findings; Complete recomputes the full report.
func (st *Store) InvariantsScoped(p *ir.Program, verdict error, base *Report, changed []bool) *Report {
	cx := &Context{Prog: p, SCCP: st.RunSCCP(p), store: st, validated: true, verdict: verdict}
	if !scopable(p, base, changed) {
		base, changed = nil, nil
	}
	return cx.run(selectPasses(true), base, changed)
}

// scopable reports whether base carries the per-procedure counts a scoped
// run of p takes.
func scopable(p *ir.Program, base *Report, changed []bool) bool {
	if base == nil || changed == nil {
		return false
	}
	for _, ps := range selectPasses(true) {
		if _, ok := ps.(procPass); ok && len(base.ProcCounts(ps.Name())) != len(p.Procs) {
			return false
		}
	}
	return true
}

// Complete returns the full report of a scoped one: the invariant passes
// re-run on every procedure against the report's own SCCP result. Other
// reports are returned as they are.
func (r *Report) Complete(p *ir.Program) *Report {
	if !r.scoped {
		return r
	}
	cx := &Context{Prog: p, SCCP: r.SCCP, validated: true, verdict: r.verdict}
	return cx.run(selectPasses(true), nil, nil)
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
	st := new(Store)
	if s == nil {
		s = st.RunSCCP(p)
	}
	cx := &Context{Prog: p, SCCP: s, store: st}
	return cx.run(passes, nil, nil)
}

// run executes the passes. A procedure pass runs per procedure, recording
// each procedure's count; with a scoped base, only the procedures changed
// marks run and the rest take base's counts, and the pass contributes no
// findings.
func (cx *Context) run(passes []Pass, base *Report, changed []bool) *Report {
	s := cx.SCCP
	rep := &Report{PerPass: make(map[string]int, len(passes)), SCCP: s, scoped: base != nil, verdict: cx.verdict}
	if cx.store == nil {
		cx.store = new(Store)
	}
	if base != nil {
		cx.only = changed
	}
	st := cx.store
	st.procPasses, st.procCounts = st.procPasses[:0], st.procCounts[:0]
	for _, ps := range passes {
		var fs []Finding
		n := 0
		if pp, ok := ps.(procPass); ok {
			// Reuse the row the store's previous report held at this
			// position.
			var counts []int32
			if k := len(st.procCounts); k < cap(st.procCounts) {
				counts = st.procCounts[:k+1][k]
			}
			counts = reset(counts, len(cx.Prog.Procs))
			st.procCounts = append(st.procCounts, counts)
			st.procPasses = append(st.procPasses, ps.Name())
			var carried []int32
			if base != nil {
				carried = base.ProcCounts(ps.Name())
			}
			for i := range cx.Prog.Procs {
				if base != nil && !changed[i] {
					counts[i] = carried[i]
				} else {
					pf := pp.runProc(cx, i)
					counts[i] = int32(len(pf))
					if base == nil {
						fs = append(fs, pf...)
					}
				}
				n += int(counts[i])
			}
		} else {
			fs = ps.Run(cx)
			n = len(fs)
		}
		sort.SliceStable(fs, func(i, j int) bool { return fs[i].Node < fs[j].Node })
		rep.PerPass[ps.Name()] = n
		rep.Findings = append(rep.Findings, fs...)
		if ps.Kind() == Invariant {
			rep.Invariants += n
		} else {
			rep.Diagnostics += n
		}
	}
	rep.procPasses, rep.procCounts = st.procPasses, st.procCounts
	return rep
}
