package ir_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
	"icbe/internal/restructure"
)

var updatePrint = flag.Bool("update", false, "rewrite testdata/print.golden")

const printGolden = "testdata/print.golden"

// goldenSource is one program of the printing golden's corpus.
type goldenSource struct {
	name string
	src  string
}

// printCorpus is the paper suite plus seeded randprog programs of every
// generator.
func printCorpus() []goldenSource {
	var out []goldenSource
	for _, w := range progs.All() {
		out = append(out, goldenSource{w.Name, w.Source})
	}
	for seed := uint64(0); seed < 8; seed++ {
		out = append(out, goldenSource{fmt.Sprintf("generate-%d", seed),
			randprog.Generate(seed, randprog.Config{Procs: 4, MaxStmts: 6, MaxDepth: 3})})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		out = append(out, goldenSource{fmt.Sprintf("recursion-%d", seed), randprog.Recursion(seed, randprog.RecConfig{})})
		out = append(out, goldenSource{fmt.Sprintf("scale-%d", seed), randprog.Scale(seed, randprog.ScaleConfig{
			Leaves: 10, LeafStmts: 40, Hubs: 4, Calls: 4, Conds: 3, ChainLeaves: 3, ChainLen: 4})})
	}
	return out
}

type printCase struct {
	label string
	p     *ir.Program
}

// malformedPrints damages clones of p the ways the printers must render
// unchanged: an assignment owned by an out-of-range procedure, two
// procedures sharing one index, a procedure with an index past the table,
// and a deleted node.
func malformedPrints(p *ir.Program) []printCase {
	var assign *ir.Node
	for _, n := range p.Nodes {
		if n != nil && n.Kind == ir.NAssign {
			assign = n
			break
		}
	}
	var out []printCase
	if assign != nil {
		q := ir.Clone(p)
		q.Nodes[assign.ID].Proc = len(q.Procs) + 3
		out = append(out, printCase{"foreign-proc", q})
		q = ir.Clone(p)
		q.Nodes[assign.ID] = nil
		out = append(out, printCase{"deleted-node", q})
	}
	if len(p.Procs) > 1 {
		q := ir.Clone(p)
		q.Procs[1].Index = 0
		out = append(out, printCase{"shared-index", q})
		q = ir.Clone(p)
		q.Procs[0].Index = len(q.Procs) + 5
		out = append(out, printCase{"index-past-table", q})
	}
	return out
}

func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// TestPrintGolden pins Dump and Dot byte for byte on every corpus program,
// before and after optimization. The golden holds each rendering's line
// count and digest; it was recorded with the per-procedure ProcNodes scans
// and fmt formatting the printers replaced.
func TestPrintGolden(t *testing.T) {
	opts := restructure.DriverOptions{
		Analysis: analysis.Options{Interprocedural: true, ModSummaries: true,
			TerminationLimit: 1000, MemoSummaries: true},
		Fold: true,
	}
	var sb strings.Builder
	for _, g := range printCorpus() {
		p, err := ir.Build(g.src)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		opt := restructure.Optimize(p, opts).Program
		for _, r := range append([]printCase{{"input", p}, {"optimized", opt}}, malformedPrints(p)...) {
			dump, dot := r.p.Dump(), r.p.Dot()
			fmt.Fprintf(&sb, "%s %s dump %d %s dot %d %s\n", g.name, r.label,
				strings.Count(dump, "\n"), digest(dump), strings.Count(dot, "\n"), digest(dot))
		}
	}
	got := sb.String()
	if *updatePrint {
		if err := os.WriteFile(printGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(printGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("rendering differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden differs in length: %d lines, want %d", len(gl), len(wl))
	}
}
