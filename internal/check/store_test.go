package check

import (
	"reflect"
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// storePrograms is a mix of sizes and shapes, so consecutive runs on one
// store shrink and grow every buffer.
func storePrograms(t *testing.T) []*ir.Program {
	var ps []*ir.Program
	for _, w := range progs.All() {
		ps = append(ps, build(t, w.Source))
	}
	for seed := uint64(0); seed < 6; seed++ {
		ps = append(ps, build(t, randprog.Generate(seed, randprog.Config{Procs: 4, MaxStmts: 8, MaxDepth: 4})))
	}
	ps = append(ps, build(t, randprog.Recursion(3, randprog.RecConfig{})))
	for _, c := range append(handMalformed(t), fuzzCorpus(t)...) {
		ps = append(ps, c.p)
	}
	return ps
}

// TestSCCPQueueBounded pins the worklist's growth: every node is queued at
// most once at a time, so the queue's capacity stays within the node count
// even on loop-heavy programs whose runs take several times more steps.
func TestSCCPQueueBounded(t *testing.T) {
	var srcs []string
	for seed := uint64(1); seed <= 3; seed++ {
		srcs = append(srcs, randprog.Scale(seed, randprog.ScaleConfig{Leaves: 8, LeafStmts: 30,
			Hubs: 4, Calls: 4, Conds: 3, ChainLeaves: 2, ChainLen: 3}))
	}
	for _, w := range progs.All() {
		srcs = append(srcs, w.Source)
	}
	long := false
	for i, src := range srcs {
		p := build(t, src)
		r := newSCCPRun(p, &Store{})
		initial := cap(r.queue)
		r.seed()
		r.drain()
		// The store sizes the queue for the node count plus a quarter of
		// headroom for later, larger revisions; the run never grows it.
		if cap(r.queue) != initial || cap(r.queue) > len(p.Nodes)+len(p.Nodes)/4 {
			t.Errorf("program %d: queue capacity %d (initially %d) for %d nodes after %d steps",
				i, cap(r.queue), initial, len(p.Nodes), r.steps)
		}
		long = long || r.steps > 2*len(p.Nodes)
	}
	if !long {
		t.Fatal("no run took more than twice its node count in steps; the bound is not exercised")
	}
}

// TestStoreReuseMatchesFresh runs a sequence of programs through one store
// and compares every fact with a fresh run: reused storage must never leak
// state from an earlier program.
func TestStoreReuseMatchesFresh(t *testing.T) {
	var st Store
	for i, p := range storePrograms(t) {
		got, want := st.RunSCCP(p), RunSCCP(p)
		if got.saturated != want.saturated || !reflect.DeepEqual(got.in, want.in) ||
			!reflect.DeepEqual(got.exec, want.exec) || !reflect.DeepEqual(got.ceRet, want.ceRet) ||
			!reflect.DeepEqual(got.summaries(), want.summaries()) || !reflect.DeepEqual(got.mustFail, want.mustFail) {
			t.Fatalf("program %d: stored run differs from a fresh run", i)
		}
	}
	for i, p := range storePrograms(t) {
		got, want := st.Invariants(p, ir.Validate(p)), AnalyzeInvariants(p)
		if !reflect.DeepEqual(got.Findings, want.Findings) || !reflect.DeepEqual(got.PerPass, want.PerPass) {
			t.Fatalf("program %d: stored invariants %v, fresh %v", i, got.PerPass, want.PerPass)
		}
	}
}
