package interp

import (
	"testing"

	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// TestForeignLocalFrameSemantics pins the interpreter's frame semantics on
// a program that fails ir.Validate: procedure f reads and writes main's
// local x. Such a variable is not part of f's dense frame, so it lives in
// the frame's overflow storage, which must behave like a per-frame
// variable map: an unwritten read yields 0, a write reads back in the same
// frame, it never leaks into the owner's frame, and recursive activations
// of f keep independent copies.
func TestForeignLocalFrameSemantics(t *testing.T) {
	p, err := ir.Build(`
		var a;
		func f(n) {
			print(a);
			a = n + 100;
			print(a);
			if (n > 0) { var r = f(n - 1); }
			print(a);
			return 0;
		}
		func main() {
			var x = 7;
			var r = f(1);
			print(x);
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	var a, x ir.VarID = ir.NoVar, ir.NoVar
	for _, v := range p.Vars {
		switch {
		case v.Name == "a" && v.IsGlobal():
			a = v.ID
		case v.Name == "main.x":
			x = v.ID
		}
	}
	if a == ir.NoVar || x == ir.NoVar {
		t.Fatal("variables a/x not found")
	}
	// Retarget f's uses of the global placeholder a to main's local x.
	fproc := p.ProcByName("f").Index
	retarget := func(v *ir.VarID) {
		if *v == a {
			*v = x
		}
	}
	retargeted := 0
	for _, n := range p.ProcNodes(fproc) {
		before := *n
		retarget(&n.Dst)
		retarget(&n.RHS.Src)
		retarget(&n.RHS.A.Var)
		retarget(&n.RHS.B.Var)
		retarget(&n.Val.Var)
		retarget(&n.CondVar)
		if before.Dst != n.Dst || before.RHS != n.RHS || before.Val != n.Val || before.CondVar != n.CondVar {
			retargeted++
		}
	}
	if retargeted < 4 {
		t.Fatalf("retargeted %d nodes, want the three reads and the write", retargeted)
	}
	if ir.Validate(p) == nil {
		t.Fatal("cross-procedure local access passed ir.Validate; the test needs a malformed program")
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// f(1): unwritten read 0, write reads back 101, the recursive f(0)
	// starts from its own unwritten 0 and writes 100, and f(1)'s copy is
	// still 101 after the call returns; main's own x stays 7.
	wantOutput(t, res, 0, 101, 0, 100, 100, 101, 7)
}

// TestScopedDecode pins which programs take the decoded engine's fast
// operand path: every compiled workload and generated program is scoped,
// so its operands skip the owner check, while a foreign-local access or a
// cross-procedure edge makes the whole program take the checked path.
func TestScopedDecode(t *testing.T) {
	srcs := []string{randprog.Recursion(1, randprog.RecConfig{}), randprog.Generate(3, randprog.Config{})}
	for _, w := range progs.All() {
		srcs = append(srcs, w.Source)
	}
	for i, src := range srcs {
		p, err := ir.Build(src)
		if err != nil {
			t.Fatal(err)
		}
		if !Prepare(p).scoped {
			t.Errorf("program %d: valid program decoded unscoped", i)
		}
	}
	p, err := ir.Build(`func f(n) { print(n); return n; } func main() { var x = 3; print(f(x)); print(x); }`)
	if err != nil {
		t.Fatal(err)
	}
	var fprint, mprint *ir.Node
	for _, n := range p.Nodes {
		if n != nil && n.Kind == ir.NPrint && n.Proc == p.MainProc && mprint == nil {
			mprint = n
		}
		if n != nil && n.Kind == ir.NPrint && n.Proc != p.MainProc && fprint == nil {
			fprint = n
		}
	}
	p.RedirectSucc(fprint.ID, fprint.Succs[0], mprint.ID)
	if Prepare(p).scoped {
		t.Error("cross-procedure edge decoded scoped")
	}
}
