package interp_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"icbe/internal/analysis"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/pred"
	"icbe/internal/progs"
	"icbe/internal/randprog"
	"icbe/internal/restructure"
)

// update regenerates testdata/engine.golden. The golden pins every Result
// field and every error detail of the interpreter over paper programs,
// generated programs, restructured programs, hand-malformed programs and
// every runtime-error kind, so a change of execution engine must reproduce
// the previous engine byte for byte.
var update = flag.Bool("update", false, "rewrite testdata/engine.golden")

// goldenInputs mirrors the restructuring driver's built-in shadow vectors
// (EOF, boundary values, pseudo-random streams) so the golden covers the
// inputs the verify oracle actually executes.
var goldenInputs = [][]int64{
	nil,
	{0},
	{1, 2, 3, 4, 5, 6, 7, 8},
	{-1, -2, -3, 0, 1, -128, 255, 256},
	{17, -40, 99, 3, 0, 128},
	{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
}

// goldenCase is one program run under several option sets.
type goldenCase struct {
	name string
	prog *ir.Program
	opts []interp.Options
}

// renderRun renders every observable of one run: the Result fields
// (output, counters, the profile map as sorted id:count pairs) and the
// error's type, position, message and sentinel. A panic is rendered as
// such; the program is malformed beyond what the engine models.
func renderRun(run func() (*interp.Result, error)) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = "panic"
		}
	}()
	res, err := run()
	var b strings.Builder
	if res == nil {
		b.WriteString("res=nil")
	} else {
		fmt.Fprintf(&b, "out=%s steps=%d ops=%d conds=%d", digestInts(res.Output), res.Steps, res.Operations, res.CondExecs)
		if res.ExecCount != nil {
			ids := make([]int, 0, len(res.ExecCount))
			for id := range res.ExecCount {
				ids = append(ids, int(id))
			}
			slices.Sort(ids)
			flat := make([]int64, 0, 2*len(ids))
			for _, id := range ids {
				flat = append(flat, int64(id), res.ExecCount[ir.NodeID(id)])
			}
			fmt.Fprintf(&b, " prof=%s", digestInts(flat))
		}
	}
	if err != nil {
		var re *interp.RuntimeError
		if errors.As(err, &re) {
			fmt.Fprintf(&b, " err{node=%d line=%d msg=%q steplimit=%v}", re.Node, re.Line, re.Msg,
				errors.Is(err, interp.ErrStepLimit))
		}
		fmt.Fprintf(&b, " text=%q", err.Error())
	}
	return b.String()
}

// digestInts renders short sequences verbatim and long ones as their length
// plus a content hash, keeping the golden reviewable.
func digestInts(v []int64) string {
	if v == nil {
		return "nil"
	}
	if len(v) <= 8 {
		return fmt.Sprint(v)
	}
	h := sha256.New()
	for _, x := range v {
		fmt.Fprintf(h, "%d,", x)
	}
	return fmt.Sprintf("#%d:%x", len(v), h.Sum(nil)[:8])
}

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := ir.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// withInputs runs the program on every golden input plus extra, profile on
// for the first.
func withInputs(extra ...[]int64) []interp.Options {
	var out []interp.Options
	for i, in := range append(slices.Clone(goldenInputs), extra...) {
		out = append(out, interp.Options{Input: in, Profile: i == 0})
	}
	return out
}

// firstNode returns the first live node satisfying f, in ID order.
func firstNode(p *ir.Program, f func(*ir.Node) bool) *ir.Node {
	for _, n := range p.Nodes {
		if n != nil && f(n) {
			return n
		}
	}
	return nil
}

func varByName(p *ir.Program, name string) ir.VarID {
	for _, v := range p.Vars {
		if v.Name == name {
			return v.ID
		}
	}
	return ir.NoVar
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	add := func(name string, p *ir.Program, opts ...interp.Options) {
		cases = append(cases, goldenCase{name: name, prog: p, opts: opts})
	}
	driver := restructure.DriverOptions{Analysis: analysis.Options{Interprocedural: true,
		ModSummaries: true, TerminationLimit: 1000, MemoSummaries: true}}

	// The paper suite, as compiled and as restructured (multi-entry and
	// multi-exit procedures, split call sites), on the shadow vectors and
	// the workloads' own inputs.
	for _, w := range progs.All() {
		p := build(t, w.Source)
		add("paper/"+w.Name, p, withInputs(w.Train, w.Ref)...)
		add("paper-opt/"+w.Name, restructure.Optimize(p, driver).Program, withInputs(w.Train)...)
	}
	// Generated programs: the differential fuzzer's shape, the driver's
	// scale shape and the recursive shape.
	for seed := uint64(0); seed < 12; seed++ {
		p := build(t, randprog.Generate(seed, randprog.Config{}))
		add(fmt.Sprintf("gen/%d", seed), p, withInputs()...)
		if seed%3 == 0 {
			add(fmt.Sprintf("gen-opt/%d", seed), restructure.Optimize(p, driver).Program, withInputs()...)
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		p := build(t, randprog.Scale(seed, randprog.ScaleConfig{Leaves: 8, LeafStmts: 30,
			Hubs: 4, Calls: 4, Conds: 3, ChainLeaves: 2, ChainLen: 3}))
		add(fmt.Sprintf("scale/%d", seed), p, withInputs()...)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		p := build(t, randprog.Recursion(seed, randprog.RecConfig{}))
		add(fmt.Sprintf("rec/%d", seed), p, withInputs()...)
		add(fmt.Sprintf("rec-opt/%d", seed), restructure.Optimize(p, driver).Program, withInputs()...)
	}

	// Every runtime-error kind, with and without the profile.
	errs := []struct{ name, src string }{
		{"div0", `func main() { var x = input(); print(7); print(1 / x); }`},
		{"mod0", `func main() { var x = input(); print(7); print(1 % x); }`},
		{"minint", `func main() { var m = 0 - 9223372036854775807 - 1; var d = 0 - 1;
			print(m / d); print(m % d); print(m * d); }`},
		{"nilload", `func main() { var p = 0; print(3); print(p[0]); }`},
		{"nilstore", `func main() { var p = 0; p[0] = 1; }`},
		{"oobload", `func main() { var p = alloc(2); p[1] = 4; print(p[1]); print(p[5]); }`},
		{"oobneg", `func main() { var p = alloc(2); var q = alloc(1); print(q[0 - 2]); print(p[0 - 3]); }`},
		{"oobstore", `func main() { var p = alloc(2); p[2] = 1; }`},
		{"negalloc", `func main() { var n = input(); var p = alloc(n); print(p); }`},
		{"hugealloc", `func main() { var p = alloc(16777217); print(p); }`},
		{"allocok", `func main() { var p = alloc(0); var q = alloc(3); print(p); print(q); print(q[2]); }`},
		{"eof", `func main() { print(input()); print(input()); print(input()); }`},
		{"global0", `var g; var h = 4; func main() { g = input(); print(g); g = g + h; print(g); }`},
		{"deep", `func f(n) { if (n == 0) { return 0; } return f(n - 1) + 1; } func main() { print(f(input() + 50)); }`},
	}
	for _, e := range errs {
		p := build(t, e.src)
		add("err/"+e.name, p,
			interp.Options{Input: []int64{0}}, interp.Options{Input: []int64{0}, Profile: true},
			interp.Options{Input: []int64{-5}, Profile: true}, interp.Options{})
	}

	// A failed assert: flip the predicate of the assert on a taken arm.
	{
		p := build(t, `func main() { var x = input(); if (x > 3) { print(1); } else { print(2); } }`)
		a := firstNode(p, func(n *ir.Node) bool { return n.Kind == ir.NAssert })
		a.APred = a.APred.Negate()
		add("err/assert", p, interp.Options{Input: []int64{9}, Profile: true}, interp.Options{Input: []int64{0}})
	}

	// The step limit at its boundary, for a program that halts in a known
	// number of steps and for one that never halts.
	{
		p := build(t, `func f(x) { return x + 1; } func main() { var i = 0; while (i < 5) { i = f(i); } print(i); }`)
		full, err := interp.Run(p, interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var opts []interp.Options
		for _, d := range []int64{-1, 0, 1} {
			opts = append(opts, interp.Options{MaxSteps: full.Steps + d},
				interp.Options{MaxSteps: full.Steps + d, Profile: true})
		}
		for s := int64(1); s <= 12; s++ {
			opts = append(opts, interp.Options{MaxSteps: s, Profile: true})
		}
		add("steplimit/halting", p, opts...)
		loop := build(t, `func main() { while (1) { var x = 1; print(x); } }`)
		add("steplimit/loop", loop, interp.Options{MaxSteps: 100}, interp.Options{MaxSteps: 101, Profile: true})
	}

	// Hand-malformed programs, each failing ir.Validate.
	{
		// A foreign local: f reads and writes main's local x.
		p := build(t, `
			var a;
			func f(n) { print(a); a = n + 100; print(a); if (n > 0) { var r = f(n - 1); } print(a); return a; }
			func main() { var x = 7; var r = f(1); print(x); print(r); }`)
		a, x := varByName(p, "a"), varByName(p, "main.x")
		for _, n := range p.ProcNodes(p.ProcByName("f").Index) {
			for _, v := range []*ir.VarID{&n.Dst, &n.RHS.Src, &n.RHS.A.Var, &n.RHS.B.Var, &n.Val.Var, &n.CondVar} {
				if *v == a {
					*v = x
				}
			}
		}
		add("malformed/foreign-local", p, withInputs()...)
	}
	{
		// A foreign local as a call argument and as a formal, and a global
		// formal: the callee frame's own storage keeps every binding.
		p := build(t, `
			var g;
			func h(u, w) { print(u); print(w); return u + w; }
			func main() { var y = 5; var z = 6; print(h(y, z)); print(g); }`)
		h := p.ProcByName("h")
		h.Formals[1] = varByName(p, "g")
		call := firstNode(p, func(n *ir.Node) bool { return n.Kind == ir.NCall })
		call.Args[0] = varByName(p, "h.u")
		add("malformed/foreign-args", p, withInputs()...)
	}
	{
		// A cross-procedure edge: f's body jumps into main's body, so main's
		// nodes run in f's frame and main's exit finds no return point.
		p := build(t, `
			func f(n) { var t = n * 2; print(t); return t; }
			func main() { var x = 3; var r = f(x); print(r); print(x); }`)
		fp := p.ProcByName("f").Index
		src := firstNode(p, func(n *ir.Node) bool { return n.Proc == fp && n.Kind == ir.NPrint })
		dst := firstNode(p, func(n *ir.Node) bool {
			return n.Proc == p.MainProc && n.Kind == ir.NPrint
		})
		p.RedirectSucc(src.ID, src.Succs[0], dst.ID)
		add("malformed/cross-proc-edge", p, withInputs()...)
	}
	{
		// A deleted successor on a straight-line node and on a branch arm.
		p := build(t, `func main() { print(1); print(2); }`)
		first := firstNode(p, func(n *ir.Node) bool { return n.Kind == ir.NPrint })
		p.Nodes[first.Succs[0]] = nil
		add("malformed/deleted-succ", p, interp.Options{}, interp.Options{Profile: true})
		q := build(t, `func main() { var x = input(); if (x > 0) { print(1); } print(2); }`)
		br := firstNode(q, func(n *ir.Node) bool { return n.Kind == ir.NBranch })
		q.Nodes[br.TrueSucc()] = nil
		add("malformed/deleted-arm", q, interp.Options{Input: []int64{1}, Profile: true}, interp.Options{Input: []int64{0}})
		r := build(t, `func main() { print(1); print(2); }`)
		nop := firstNode(r, func(n *ir.Node) bool { return n.Kind == ir.NPrint })
		r.AddEdge(nop.ID, firstNode(r, func(n *ir.Node) bool { return n.Kind == ir.NExit }).ID)
		add("malformed/two-succs", r, interp.Options{Profile: true})
	}
	{
		// A missing return point: the exit→call-site-exit edge is gone.
		p := build(t, `func f() { return 1; } func main() { print(0); print(f()); }`)
		ce := firstNode(p, func(n *ir.Node) bool { return n.Kind == ir.NCallExit })
		p.RemoveEdge(p.ExitPred(ce).ID, ce.ID)
		add("malformed/no-return-point", p, interp.Options{Profile: true}, interp.Options{})
	}
	{
		// An exit with two return points for one call: the first in the
		// exit's successor order wins.
		p := build(t, `func f() { return 1; } func main() { var r = f(); print(r); print(9); }`)
		ce := firstNode(p, func(n *ir.Node) bool { return n.Kind == ir.NCallExit })
		ce2 := p.NewNode(ir.NCallExit, ce.Proc)
		ce2.Callee, ce2.Line = ce.Callee, ce.Line
		p.AddEdge(p.CallPred(ce).ID, ce2.ID)
		p.AddEdge(p.ExitPred(ce).ID, ce2.ID)
		p.AddEdge(ce2.ID, p.Node(ce.Succs[0]).Succs[0])
		add("malformed/two-return-points", p, interp.Options{Profile: true})
	}
	{
		// Invalid operators and kinds.
		src := `func main() { var x = input(); var y = x + 2; if (x > 0) { print(y); } print(x); }`
		p := build(t, src)
		firstNode(p, func(n *ir.Node) bool { return n.Kind == ir.NBranch }).CondOp = pred.Op(99)
		add("malformed/bad-condop", p, interp.Options{Input: []int64{1}})
		q := build(t, src)
		firstNode(q, func(n *ir.Node) bool { return n.Kind == ir.NAssert }).APred.Op = pred.Op(99)
		add("malformed/bad-assertop", q, interp.Options{Input: []int64{1}}, interp.Options{Input: []int64{-1}})
		r := build(t, src)
		firstNode(r, func(n *ir.Node) bool { return n.Kind == ir.NAssign && n.RHS.Kind == ir.RBinop }).RHS.Op = ir.BinOp(42)
		add("malformed/bad-binop", r, interp.Options{Input: []int64{1}, Profile: true})
		s := build(t, src)
		firstNode(s, func(n *ir.Node) bool { return n.Kind == ir.NAssign && n.RHS.Kind == ir.RBinop }).RHS.Kind = ir.RHSKind(77)
		add("malformed/bad-rhs", s, interp.Options{Input: []int64{1}, Profile: true})
		u := build(t, src)
		firstNode(u, func(n *ir.Node) bool { return n.Kind == ir.NPrint }).Kind = ir.NodeKind(66)
		add("malformed/bad-kind", u, interp.Options{Input: []int64{1}, Profile: true}, interp.Options{Input: []int64{0}})
		v := build(t, src)
		firstNode(v, func(n *ir.Node) bool { return n.Kind == ir.NPrint }).Val = ir.VarOp(ir.VarID(len(v.Vars) + 3))
		add("malformed/bad-var", v, interp.Options{Input: []int64{1}}, interp.Options{Input: []int64{0}})
		w := build(t, src)
		firstNode(w, func(n *ir.Node) bool { return n.Kind == ir.NAssign && n.RHS.Kind == ir.RBinop }).Dst = ir.VarID(-7)
		add("malformed/bad-dst", w, interp.Options{Input: []int64{1}})
	}
	{
		// Wraparound arithmetic on the extremes of int64.
		p := build(t, `func main() { var m = 9223372036854775807; print(m + 1); print(m * 3); print(0 - m - 2); print(byte(m)); }`)
		add("arith/wrap", p, interp.Options{Profile: true})
	}
	return cases
}

// renderGolden renders every case's runs. Each run goes through Run and
// through one Prepare shared by all of the case's runs, as the shadow
// oracle executes its inputs; the two must agree.
func renderGolden(t *testing.T) string {
	var b strings.Builder
	for _, c := range goldenCases(t) {
		d := interp.Prepare(c.prog)
		for i, o := range c.opts {
			got := renderRun(func() (*interp.Result, error) { return interp.Run(c.prog, o) })
			if shared := renderRun(func() (*interp.Result, error) { return d.Run(o) }); shared != got {
				t.Errorf("%s #%d: shared decode %s, fresh %s", c.name, i, shared, got)
			}
			fmt.Fprintf(&b, "%s #%d: %s\n", c.name, i, got)
		}
	}
	return b.String()
}

// TestEngineGolden pins the interpreter's observable behaviour.
func TestEngineGolden(t *testing.T) {
	got := renderGolden(t)
	path := filepath.Join("testdata", "engine.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run TestEngineGolden -update): %v", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("engine diverged from the golden at line %d\n want %s\n  got %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("engine diverged from the golden: %d lines, want %d", len(gl), len(wl))
	}
}
