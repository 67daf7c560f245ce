package check_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/check"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
	"icbe/internal/restructure"
)

var updateFacts = flag.Bool("update-facts", false, "rewrite testdata/sccp_facts.golden")

const factsGolden = "testdata/sccp_facts.golden"

// factsCorpus is the paper suite plus seeded randprog programs of every
// generator, each before and after optimization.
func factsCorpus(t *testing.T) (names []string, ps []*ir.Program) {
	t.Helper()
	type source struct{ name, src string }
	var srcs []source
	for _, w := range progs.All() {
		srcs = append(srcs, source{w.Name, w.Source})
	}
	for seed := uint64(0); seed < 8; seed++ {
		srcs = append(srcs, source{fmt.Sprintf("generate-%d", seed),
			randprog.Generate(seed, randprog.Config{Procs: 4, MaxStmts: 6, MaxDepth: 3})})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		srcs = append(srcs, source{fmt.Sprintf("recursion-%d", seed), randprog.Recursion(seed, randprog.RecConfig{})})
		srcs = append(srcs, source{fmt.Sprintf("scale-%d", seed), randprog.Scale(seed, randprog.ScaleConfig{
			Leaves: 10, LeafStmts: 40, Hubs: 4, Calls: 4, Conds: 3, ChainLeaves: 3, ChainLen: 4})})
	}
	opts := restructure.DriverOptions{
		Analysis: analysis.Options{Interprocedural: true, ModSummaries: true,
			TerminationLimit: 1000, MemoSummaries: true},
		Fold: true,
	}
	for _, s := range srcs {
		p, err := ir.Build(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		names = append(names, s.name+" input", s.name+" optimized")
		ps = append(ps, p, restructure.Optimize(p, opts).Program)
	}
	return names, ps
}

// renderFacts writes every observable fact of one SCCP run: the value of
// every variable on entry to every node, reachability, each branch's edge
// facts, the must-fail asserts and every variable's summary.
func renderFacts(p *ir.Program, s *check.SCCP) string {
	var b strings.Builder
	for _, n := range p.Nodes {
		if n == nil {
			continue
		}
		fmt.Fprintf(&b, "n%d %v:", n.ID, s.Reachable(n.ID))
		for _, v := range p.Vars {
			fmt.Fprintf(&b, " %v", s.ValueAt(n.ID, v.ID))
		}
		if n.Kind == ir.NBranch {
			fmt.Fprintf(&b, " edges %+v", s.EdgeFacts(n.ID))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "must-fail %v\n", s.MustFailAsserts())
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "%s=%v ", v.Name, s.VarValue(v.ID))
	}
	return b.String()
}

// TestSCCPFactsGolden pins the oracle's facts on the corpus. The golden
// holds one digest per program; it was recorded before the run's
// per-variable summary became lazy and its layout moved into the store, so
// any change in a fact — not only in a finding — fails it.
func TestSCCPFactsGolden(t *testing.T) {
	names, ps := factsCorpus(t)
	var sb strings.Builder
	var st check.Store
	for i, p := range ps {
		fresh := renderFacts(p, check.RunSCCP(p))
		if stored := renderFacts(p, st.RunSCCP(p)); stored != fresh {
			t.Fatalf("%s: facts of a reused store differ from a fresh run", names[i])
		}
		fmt.Fprintf(&sb, "%s %x\n", names[i], sha256.Sum256([]byte(fresh)))
	}
	got := sb.String()
	if *updateFacts {
		if err := os.WriteFile(factsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(factsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-facts to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("facts differ at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden differs in length: %d lines, want %d", len(gl), len(wl))
	}
}
