package check

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/randprog"
)

var updateFindings = flag.Bool("update", false, "rewrite testdata/malformed_findings.golden")

const findingsGolden = "testdata/malformed_findings.golden"

const indexSrc = `
var g = 1;
func f(n) {
	var t = n + g;
	if (t > 3) { g = t; }
	return t;
}
func main() {
	var a = input();
	var r = f(a);
	if (r == 5) { print(r); } else { print(a); }
}
`

type malformedCase struct {
	name string
	p    *ir.Program
}

// handMalformed damages indexSrc in the ways the per-run procedure index
// must tolerate: node Proc values out of range, entries listed under the
// wrong procedure, and nil node slots with and without dangling edges.
func handMalformed(t *testing.T) []malformedCase {
	t.Helper()
	build := func() *ir.Program {
		p, err := ir.Build(indexSrc)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// firstOf returns the first live node of the procedure with the kind.
	firstOf := func(p *ir.Program, proc int, k ir.NodeKind) *ir.Node {
		for _, n := range p.ProcNodes(proc) {
			if n.Kind == k {
				return n
			}
		}
		t.Fatalf("no %s node in proc %d", k, proc)
		return nil
	}
	var out []malformedCase
	add := func(name string, damage func(p *ir.Program, f, main int)) {
		p := build()
		damage(p, p.ProcByName("f").Index, p.MainProc)
		out = append(out, malformedCase{name, p})
	}
	add("intact", func(*ir.Program, int, int) {})
	add("proc-too-large", func(p *ir.Program, f, _ int) {
		firstOf(p, f, ir.NBranch).Proc = len(p.Procs) + 1
	})
	add("proc-negative", func(p *ir.Program, _, main int) {
		firstOf(p, main, ir.NAssign).Proc = -1
		firstOf(p, main, ir.NPrint).Proc = -2
	})
	add("entry-listed-twice", func(p *ir.Program, f, main int) {
		p.Procs[f].Entries = append(p.Procs[f].Entries, p.Procs[main].Entries[0])
	})
	add("entry-moved", func(p *ir.Program, f, main int) {
		p.Procs[f].Entries = append(p.Procs[f].Entries, p.Procs[main].Entries...)
		p.Procs[main].Entries = nil
	})
	add("entry-of-foreign-node", func(p *ir.Program, f, main int) {
		p.Procs[main].Entries = append(p.Procs[main].Entries, firstOf(p, f, ir.NAssign).ID)
	})
	add("nil-slot-dangling", func(p *ir.Program, f, _ int) {
		p.Nodes[firstOf(p, f, ir.NAssign).ID] = nil
	})
	add("nil-slot-entry", func(p *ir.Program, f, _ int) {
		p.Nodes[p.Procs[f].Entries[0]] = nil
	})
	add("nil-slots-clean", func(p *ir.Program, _, main int) {
		br := firstOf(p, main, ir.NBranch)
		arm := p.Node(br.Succs[0])
		for _, s := range arm.Succs {
			p.RemoveEdge(arm.ID, s)
		}
		p.RemoveEdge(br.ID, arm.ID)
		p.Nodes[arm.ID] = nil
	})
	// bypass unlinks the procedure's first assignment, so its destination
	// is read before any assignment (a use-before-def finding).
	bypass := func(p *ir.Program, proc int) {
		a := firstOf(p, proc, ir.NAssign)
		succ := a.Succs[0]
		for _, pr := range append([]ir.NodeID(nil), a.Preds...) {
			p.RedirectSucc(pr, a.ID, succ)
		}
		p.DeleteNode(a.ID)
	}
	add("def-bypassed", func(p *ir.Program, f, _ int) { bypass(p, f) })
	add("def-bypassed-foreign-reader", func(p *ir.Program, f, _ int) {
		bypass(p, f)
		firstOf(p, f, ir.NBranch).Proc = len(p.Procs)
	})
	add("foreign-local-read", func(p *ir.Program, f, main int) {
		// f's branch tests main's local a, which f's states do not hold.
		firstOf(p, f, ir.NBranch).CondVar = firstOf(p, main, ir.NAssign).Dst
	})
	add("all-of-the-above", func(p *ir.Program, f, main int) {
		firstOf(p, f, ir.NBranch).Proc = -1
		p.Procs[f].Entries = append(p.Procs[f].Entries, p.Procs[main].Entries[0])
		p.Nodes[firstOf(p, main, ir.NPrint).ID] = nil
		bypass(p, main)
	})
	return out
}

// fuzzCorpus rebuilds the FuzzCheck seed corpus programs — the f.Add seeds
// and the committed testdata/fuzz/FuzzCheck entries — with FuzzCheck's
// mutation schedule.
func fuzzCorpus(t *testing.T) []malformedCase {
	t.Helper()
	type seedPair struct{ seed, mut uint64 }
	var pairs []seedPair
	for _, seed := range []uint64{0, 1, 2, 3, 7, 11, 42, 99, 1234, 0xdeadbeef} {
		pairs = append(pairs, seedPair{seed, seed * 3}, seedPair{seed, 0})
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzCheck/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, file := range files {
		vals := readCorpusEntry(t, file)
		if len(vals) != 2 {
			t.Fatalf("%s: %d values, want 2", file, len(vals))
		}
		pairs = append(pairs, seedPair{vals[0], vals[1]})
	}
	var out []malformedCase
	for _, sp := range pairs {
		p, err := ir.Build(randprog.Generate(sp.seed, fuzzCfg))
		if err != nil {
			t.Fatal(err)
		}
		r := &fuzzRNG{s: sp.mut}
		for i := 0; i < int(sp.mut%4); i++ {
			mutate(p, r)
		}
		out = append(out, malformedCase{fmt.Sprintf("fuzz-%d-%d", sp.seed, sp.mut), p})
	}
	return out
}

// readCorpusEntry parses a "go test fuzz v1" file of uint64 values.
func readCorpusEntry(t *testing.T, file string) []uint64 {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var vals []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "uint64(") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "uint64("), ")"), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		vals = append(vals, v)
	}
	return vals
}

// TestMalformedFindingsGolden pins the invariant passes' findings, and the
// oracle's branch facts, on malformed programs. The passes share one
// per-run procedure index and one reachability bitmap, and the oracle's
// per-procedure states one variable layout; this golden was recorded from
// the per-procedure whole-program scans and per-space slot tables they
// replaced, so the index must reproduce every finding and fact exactly.
// Regenerate with -update only when a pass's intended output changes.
func TestMalformedFindingsGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range append(handMalformed(t), fuzzCorpus(t)...) {
		rep := AnalyzeInvariants(c.p)
		fmt.Fprintf(&sb, "== %s\n", c.name)
		for _, ps := range Passes() {
			if n, ok := rep.PerPass[ps.Name()]; ok {
				fmt.Fprintf(&sb, "%s: %d\n", ps.Name(), n)
			}
		}
		for _, f := range rep.Findings {
			fmt.Fprintf(&sb, "  %s\n", f)
		}
		for _, n := range c.p.Nodes {
			if n != nil && n.Kind == ir.NBranch {
				fmt.Fprintf(&sb, "  branch %d: %s at %s\n", n.ID,
					rep.SCCP.BranchOutcome(n.ID), rep.SCCP.ValueAt(n.ID, n.CondVar))
			}
		}
	}
	got := sb.String()
	if *updateFindings {
		if err := os.WriteFile(findingsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(findingsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("findings differ at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("findings differ in length: %d lines, want %d", len(gl), len(wl))
	}
}
