// Package interp executes ICFG programs. It serves two roles in the
// reproduction: it produces the dynamic profiles (per-node execution
// counts) that weight the paper's dynamic measurements, and it is the
// semantic oracle for the restructuring transformation — an optimized
// program must produce identical output and must not execute more
// operations than the original on any input.
//
// Execution is split in two. Prepare decodes a program once into a dense
// instruction array indexed by node ID: every operand is resolved to a
// constant, a global's index or a frame slot, every successor to an
// instruction index, and calls and exits get side tables (argument and
// formal bindings, the entry to jump to, the call-site exits an exit may
// return to). Run then executes one input against that decode, so a caller
// running many inputs — the driver's shadow oracle runs every verify input
// on each attempt's program — pays for the decode once. Run(p, opts) is
// Prepare(p).Run(opts).
//
// Programs that fail ir.Validate keep the semantics of a per-frame
// variable map: a local read or written from a frame of another procedure
// (a foreign local, or any local once a cross-procedure edge moved control
// into a procedure without a call) lives in that frame's lazily allocated
// overflow map, where an unwritten read yields 0. References the decode
// cannot resolve at all (a variable ID outside the arena, a call without
// its entry or arguments, a branch without two arms, an invalid operator)
// panic when executed, never at Prepare.
package interp

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"icbe/internal/ir"
	"icbe/internal/pred"
)

// Options configures a program run.
type Options struct {
	// Input is the stream consumed by input(); when exhausted, input()
	// returns -1 (the EOF model of the paper's stdio example).
	Input []int64
	// MaxSteps bounds the number of executed nodes (0 means the default of
	// 50 million). Exceeding it is reported as an error.
	MaxSteps int64
	// Profile enables per-node execution counting.
	Profile bool
}

// DefaultMaxSteps bounds runaway executions.
const DefaultMaxSteps = 50_000_000

// ErrStepLimit categorizes a RuntimeError caused by exhausting
// Options.MaxSteps. It is exposed as a sentinel so callers can distinguish
// "the run was too slow for its budget" from genuine faults (nil
// dereference, division by zero) with errors.Is(err, interp.ErrStepLimit) —
// the restructuring driver's shadow-execution oracle skips budget-exhausted
// inputs instead of reporting them as miscompilations.
var ErrStepLimit = errors.New("step limit exceeded")

// Result summarizes an execution.
type Result struct {
	// Output collects the values printed by the program, in order.
	Output []int64
	// Steps counts every executed node, including synthetic ones.
	Steps int64
	// Operations counts executed operation nodes (the paper's unit for the
	// safety guarantee: restructuring never lengthens any path).
	Operations int64
	// CondExecs counts executed conditional branch nodes.
	CondExecs int64
	// ExecCount maps node IDs to execution counts (when Options.Profile).
	ExecCount map[ir.NodeID]int64
}

// RuntimeError is an execution failure (nil dereference, division by zero,
// step limit, missing return point).
type RuntimeError struct {
	Node ir.NodeID
	Line int
	Msg  string
	// Err, when non-nil, is a sentinel categorizing the failure (currently
	// only ErrStepLimit); it is returned by Unwrap so errors.Is works.
	Err error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error at node %d (line %d): %s", e.Node, e.Line, e.Msg)
}

// Unwrap exposes the categorizing sentinel, if any.
func (e *RuntimeError) Unwrap() error { return e.Err }

// Run executes the program from main's entry until main's exit. The
// returned Result is valid (partially filled) even when an error occurred.
func Run(p *ir.Program, opts Options) (*Result, error) { return Prepare(p).Run(opts) }

// opcode is a decoded instruction's operation: one per node kind, with
// assignments split by right-hand side and arithmetic operator.
type opcode uint8

const (
	opGoto opcode = iota // entry, nop
	opAssert
	opConst
	opCopy
	opNeg
	opByte
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opBadBinop
	opLoad
	opAlloc
	opInput
	opBadRHS
	opBranch
	opPrint
	opStore
	opCall
	opExit
	opCallExit
	opBadKind
	opPanic // a call without a callee, a single entry or its arguments
)

const (
	absOwner int32 = -1
	noOwner  int32 = -2
)

// argKind classifies a decoded variable reference.
type argKind uint8

const (
	argAbs     argKind = iota // a global or a constant: vals[slot]
	argLocal                  // the frame's slot when the frame runs owner, else its overflow map
	argForeign                // always the frame's overflow map
	argBad                    // panics when used, like an arena lookup out of range
)

// arg is a decoded operand, read source or write destination. Globals and
// constants share one absolute area at the bottom of the machine's value
// stack, so every operand is one indexed load. owner is absOwner for
// absolute operands, the owning procedure for locals and noOwner
// otherwise, so the fast paths test owner alone.
type arg struct {
	slot  int32
	owner int32
	// mask is -1 for frame-relative operands (locals) and 0 for absolute
	// ones: in a scoped program an operand lives at slot + base&mask.
	mask int32
	v    ir.VarID
	kind argKind
}

// instr is one decoded node. a and b are the node's operands in the order
// the node evaluates them; c is a store's value, or the destination of an
// assignment or call-site exit when write is set. A branch tests
// (a condOp b), and so does an assert, with its constant in b. next is the
// only (or the true) successor and alt the false one, or a sentinel
// (noSucc, badSucc). aux indexes the call or exit side table.
type instr struct {
	a, b, c   arg
	next, alt int32
	aux       int32
	line      int32
	op        opcode
	condOp    pred.Op
	isOp      bool
	write     bool
}

// callSite is a decoded call node: the callee, its entry, and the span
// [lo,hi) of Prepared.args (reads in the caller's frame) and
// Prepared.formals (writes in the callee's) binding its arguments.
type callSite struct {
	callee, entry int32
	lo, hi        int32
}

// Successor sentinels: noSucc is control reaching no live node (a runtime
// error), badSucc a branch arm the node does not have (a panic).
const (
	noSucc  int32 = -1
	badSucc int32 = -2
)

// retPoint is one return edge of an exit: control returns to ce when the
// frame being popped was created by call node call. An exit's return edges
// are the span [lo,hi) of Prepared.rets, in successor order.
type retPoint struct{ call, ce int32 }

type span struct{ lo, hi int32 }

// Prepared is a program decoded for execution. It is immutable, so Run may
// be called any number of times, also concurrently. The source program is
// read again only to format error messages, so it must not change while
// the decoded program is in use.
type Prepared struct {
	prog          *ir.Program
	code          []instr
	calls         []callSite
	args, formals []arg
	exits         []span
	rets          []retPoint
	// init holds the absolute area's initial values: the globals' initial
	// values, then the constant pool; pool maps a constant to its slot.
	init []int64
	pool map[int64]int32
	// slot is ir.LocalSlots' variable layout and frameSize its per-procedure
	// counts; gslot is each global's slot in the absolute area. All three
	// depend on the variable arena alone, so delta decodes share them.
	slot, gslot []int32
	frameSize   []int32
	// ret is each procedure's return-variable read in its own frame.
	ret      []arg
	mainProc int
	start    int32
	// scoped reports that every executing node runs in a frame of its own
	// procedure (true for every program the compiler and the restructurer
	// produce), so operands need no owner check.
	scoped bool
}

// Prepare decodes the program. It panics only where Run would panic on
// every input (an out-of-range main procedure, a procedure without
// entries, a nil variable); references reached only on some paths decode
// to instructions that panic when executed.
func Prepare(p *ir.Program) *Prepared { return PrepareFrom(nil, nil, p, nil) }

// PrepareFrom decodes p like Prepare, into dst's storage when dst is
// non-nil (dst's previous decode is dead afterwards and must not be base).
//
// With a base decode, only the delta is decoded: the changed nodes, every
// node with a changed successor (its successor indices and scoping check
// read the successor) and every exit returning to a call-site exit with a
// changed predecessor (its return table reads the call predecessors); every
// other instruction is copied from base. The caller guarantees that p and
// base's program have equal variable arenas, the same procedure count,
// main procedure and formals, and that every node not listed in changed is
// identical in both. A base that is not scoped decodes p in full, as no
// base does. A delta decode may number its constant-pool slots differently
// from a full one; its execution is the same.
func PrepareFrom(dst, base *Prepared, p *ir.Program, changed []ir.NodeID) *Prepared {
	if dst == nil {
		dst = new(Prepared)
	}
	// An unscoped base holds instructions that cleared scoped; copying
	// them would not clear it again.
	if base == nil || !base.scoped {
		return dst.decodeAll(p)
	}
	return dst.decodeDelta(base, p, changed)
}

// reuse resets d for a new decode of p, keeping its storage.
func (d *Prepared) reuse(p *ir.Program) {
	*d = Prepared{
		prog: p, mainProc: p.MainProc,
		code: d.code[:0], calls: d.calls[:0], args: d.args[:0], formals: d.formals[:0],
		exits: d.exits[:0], rets: d.rets[:0], init: d.init[:0], ret: d.ret[:0],
		pool: d.pool,
	}
	if d.pool == nil {
		d.pool = make(map[int64]int32)
	}
	clear(d.pool)
}

// decodeAll decodes every node of p.
func (d *Prepared) decodeAll(p *ir.Program) *Prepared {
	d.reuse(p)
	d.slot, d.frameSize = ir.LocalSlots(p)
	d.gslot = make([]int32, len(p.Vars))
	for _, v := range p.Vars {
		if v.IsGlobal() {
			d.gslot[v.ID] = int32(len(d.init))
			d.init = append(d.init, v.Init)
		}
	}
	// scoped stays true while every reference is a global or a local of
	// the procedure whose node uses it, and every transfer of control keeps
	// the executing node in its frame's procedure. Then no frame ever runs
	// another procedure's node and Run skips the owner checks.
	d.scoped = true
	d.code = slices.Grow(d.code, len(p.Nodes))[:len(p.Nodes)]
	for i := range p.Nodes {
		d.decodeNode(i)
	}
	d.decodeProcs()
	return d
}

// decodeDelta decodes p from base, re-decoding only what changed. It
// fills the side tables in node order, like decodeAll, so a delta's
// tables hold exactly the entries of its live calls and exits however long
// the chain of deltas behind it.
func (d *Prepared) decodeDelta(base *Prepared, p *ir.Program, changed []ir.NodeID) *Prepared {
	d.reuse(p)
	d.slot, d.gslot, d.frameSize = base.slot, base.gslot, base.frameSize
	d.init = append(d.init, base.init...)
	maps.Copy(d.pool, base.pool)
	d.scoped = true
	n := len(p.Nodes)
	d.code = slices.Grow(d.code, n)[:n]

	redo := make([]uint64, (n+63)/64)
	mark := func(id ir.NodeID) {
		if id >= 0 && int(id) < n {
			redo[id>>6] |= 1 << (uint(id) & 63)
		}
	}
	for _, c := range changed {
		mark(c)
		cn := p.Node(c)
		if cn == nil {
			continue
		}
		for _, m := range cn.Preds {
			mark(m)
		}
		for _, s := range cn.Succs {
			ce := p.Node(s)
			if ce == nil || ce.Kind != ir.NCallExit {
				continue
			}
			for _, x := range ce.Preds {
				if xn := p.Node(x); xn != nil && xn.Kind == ir.NExit {
					mark(x)
				}
			}
		}
	}
	for i := range d.code {
		if redo[i>>6]&(1<<(uint(i)&63)) != 0 || i >= len(base.code) {
			d.decodeNode(i)
			continue
		}
		in := base.code[i]
		switch in.op {
		case opCall:
			cs := base.calls[in.aux]
			in.aux = int32(len(d.calls))
			lo := int32(len(d.args))
			d.args = append(d.args, base.args[cs.lo:cs.hi]...)
			d.formals = append(d.formals, base.formals[cs.lo:cs.hi]...)
			cs.lo, cs.hi = lo, int32(len(d.args))
			d.calls = append(d.calls, cs)
		case opExit:
			sp := base.exits[in.aux]
			in.aux = int32(len(d.exits))
			lo := int32(len(d.rets))
			d.rets = append(d.rets, base.rets[sp.lo:sp.hi]...)
			d.exits = append(d.exits, span{lo: lo, hi: int32(len(d.rets))})
		}
		d.code[i] = in
	}
	d.decodeProcs()
	return d
}

// constant returns the absolute slot of constant c, pooling it.
func (d *Prepared) constant(c int64) arg {
	i, ok := d.pool[c]
	if !ok {
		i = int32(len(d.init))
		d.pool[c] = i
		d.init = append(d.init, c)
	}
	return arg{kind: argAbs, slot: i, owner: absOwner}
}

// inProc clears scoped when control moves to a live node outside proc.
func (d *Prepared) inProc(id int32, proc int) {
	if id >= 0 && d.prog.Nodes[id].Proc != proc {
		d.scoped = false
	}
}

// read decodes a variable reference made by a node of proc the way the
// arena lookup resolves it against the executing frame.
func (d *Prepared) read(v ir.VarID, proc int) arg {
	p := d.prog
	var a arg
	switch {
	case v < 0 || int(v) >= len(p.Vars) || p.Vars[v] == nil:
		a = arg{kind: argBad, owner: noOwner, v: v}
	case p.Vars[v].IsGlobal():
		a = arg{kind: argAbs, slot: d.gslot[v], owner: absOwner, v: v}
	case d.slot[v] >= 0:
		a = arg{kind: argLocal, slot: d.slot[v], owner: int32(p.Vars[v].Proc), mask: -1, v: v}
	default:
		a = arg{kind: argForeign, owner: noOwner, v: v}
	}
	if a.owner != absOwner && a.owner != int32(proc) {
		d.scoped = false
	}
	return a
}

func (d *Prepared) operand(o ir.Operand, proc int) arg {
	if o.IsConst {
		return d.constant(o.Const)
	}
	return d.read(o.Var, proc)
}

// formal decodes a callee-frame binding: it always lands in the new frame,
// in its slot when the variable is one of the callee's own.
func (d *Prepared) formal(v ir.VarID, callee int) arg {
	if v >= 0 && int(v) < len(d.slot) && d.slot[v] >= 0 && d.prog.Vars[v].Proc == callee {
		return arg{kind: argLocal, slot: d.slot[v], owner: int32(callee), mask: -1, v: v}
	}
	d.scoped = false
	return arg{kind: argForeign, owner: noOwner, v: v}
}

func (d *Prepared) live(id ir.NodeID) int32 {
	if d.prog.Node(id) == nil {
		return noSucc
	}
	return int32(id)
}

// decodeProcs decodes the per-procedure return reads and the start.
func (d *Prepared) decodeProcs() {
	p := d.prog
	for i, pr := range p.Procs {
		if pr == nil {
			d.ret = append(d.ret, arg{kind: argBad, owner: noOwner})
			continue
		}
		d.ret = append(d.ret, d.read(pr.RetVar, i))
	}
	d.start = d.live(p.Procs[p.MainProc].Entries[0])
	d.inProc(d.start, p.MainProc)
}

// decodeNode decodes node i into code[i], appending its call or exit side
// table entries. This is the one per-node decoder full and delta decodes
// share.
func (d *Prepared) decodeNode(i int) {
	p := d.prog
	n := p.Nodes[i]
	in := &d.code[i]
	*in = instr{}
	if n == nil {
		return
	}
	in.line = int32(n.Line)
	in.isOp = n.IsOperation()
	in.next, in.alt = noSucc, noSucc
	if len(n.Succs) == 1 {
		in.next = d.live(n.Succs[0])
	}
	switch n.Kind {
	case ir.NEntry, ir.NNop:
		in.op = opGoto
	case ir.NAssert:
		in.op, in.a, in.condOp, in.b = opAssert, d.read(n.AVar, n.Proc), n.APred.Op, d.constant(n.APred.C)
	case ir.NAssign:
		in.c, in.write = d.read(n.Dst, n.Proc), true
		r := n.RHS
		switch r.Kind {
		case ir.RConst:
			in.op, in.a = opConst, d.constant(r.Const)
		case ir.RCopy:
			in.op, in.a = opCopy, d.read(r.Src, n.Proc)
		case ir.RNeg:
			in.op, in.a = opNeg, d.read(r.Src, n.Proc)
		case ir.RByte:
			in.op, in.a = opByte, d.read(r.Src, n.Proc)
		case ir.RBinop:
			in.a, in.b = d.operand(r.A, n.Proc), d.operand(r.B, n.Proc)
			switch r.Op {
			case ir.OpAdd:
				in.op = opAdd
			case ir.OpSub:
				in.op = opSub
			case ir.OpMul:
				in.op = opMul
			case ir.OpDiv:
				in.op = opDiv
			case ir.OpMod:
				in.op = opMod
			default:
				in.op = opBadBinop
			}
		case ir.RLoad:
			in.op, in.a, in.b = opLoad, d.read(r.Src, n.Proc), d.operand(r.A, n.Proc)
		case ir.RAlloc:
			in.op, in.a = opAlloc, d.operand(r.A, n.Proc)
		case ir.RInput:
			in.op = opInput
		default:
			in.op = opBadRHS
		}
	case ir.NBranch:
		in.op, in.condOp = opBranch, n.CondOp
		in.a, in.b = d.read(n.CondVar, n.Proc), d.operand(n.CondRHS, n.Proc)
		// A missing arm panics when taken, like indexing the edge list.
		in.next, in.alt = badSucc, badSucc
		if len(n.Succs) > 0 {
			in.next = d.live(n.Succs[0])
		}
		if len(n.Succs) > 1 {
			in.alt = d.live(n.Succs[1])
		}
	case ir.NPrint:
		in.op, in.a = opPrint, d.operand(n.Val, n.Proc)
	case ir.NStore:
		in.op, in.a, in.b, in.c = opStore, d.read(n.Ptr, n.Proc), d.operand(n.Idx, n.Proc), d.operand(n.Val, n.Proc)
	case ir.NCall:
		in.op = opPanic
		if n.Callee < 0 || n.Callee >= len(p.Procs) || p.Procs[n.Callee] == nil {
			break
		}
		callee := p.Procs[n.Callee]
		entry, entries := int32(-1), 0
		for _, s := range n.Succs {
			if sn := p.Node(s); sn != nil && sn.Kind == ir.NEntry {
				entry, entries = int32(s), entries+1
			}
		}
		if entries != 1 || len(n.Args) < len(callee.Formals) {
			break
		}
		cs := callSite{callee: int32(n.Callee), entry: entry, lo: int32(len(d.args))}
		for j, f := range callee.Formals {
			d.args = append(d.args, d.read(n.Args[j], n.Proc))
			d.formals = append(d.formals, d.formal(f, n.Callee))
		}
		cs.hi = int32(len(d.args))
		d.inProc(entry, n.Callee)
		in.op, in.aux = opCall, int32(len(d.calls))
		d.calls = append(d.calls, cs)
	case ir.NExit:
		sp := span{lo: int32(len(d.rets))}
		for _, s := range n.Succs {
			ce := p.Node(s)
			if ce == nil || ce.Kind != ir.NCallExit {
				continue
			}
			if cp := p.CallPred(ce); cp != nil {
				d.rets = append(d.rets, retPoint{call: int32(cp.ID), ce: int32(s)})
				d.inProc(int32(s), cp.Proc)
			}
		}
		sp.hi = int32(len(d.rets))
		in.op, in.aux = opExit, int32(len(d.exits))
		d.exits = append(d.exits, sp)
	case ir.NCallExit:
		in.op = opCallExit
		if n.Dst != ir.NoVar {
			in.c, in.write = d.read(n.Dst, n.Proc), true
		}
	default:
		in.op = opBadKind
	}
	switch in.op {
	case opCall, opExit:
	case opBranch:
		d.inProc(in.next, n.Proc)
		d.inProc(in.alt, n.Proc)
	default:
		d.inProc(in.next, n.Proc)
	}
}

// frame is one procedure activation. The procedure's own variables live in
// the machine's value stack at base plus their ir.LocalSlots slot; any
// other local lives in the lazily allocated overflow map.
type frame struct {
	proc     int32
	callNode int32 // NCall node that created this frame; -1 for main
	base     int32
	overflow map[ir.VarID]int64
}

// machine is the state of one Run. vals is the value stack: the absolute
// area (globals, constants) followed by every live frame's own variables,
// frame after frame.
type machine struct {
	d      *Prepared
	vals   []int64
	heap   []int64
	frames []frame
	// proc and base cache the innermost frame's procedure and stack base.
	proc   int32
	base   int32
	scoped bool
	input  []int64
	inPos  int
	argv   []int64
}

func (m *machine) push(proc, callNode int32) {
	base := len(m.vals)
	size := int(m.d.frameSize[proc])
	m.vals = slices.Grow(m.vals, size)[:base+size]
	clear(m.vals[base:])
	m.frames = append(m.frames, frame{proc: proc, callNode: callNode, base: int32(base)})
	m.proc, m.base = proc, int32(base)
}

// get reads a decoded operand in the innermost frame.
func (m *machine) get(a *arg) int64 {
	if m.scoped {
		return m.vals[a.slot+m.base&a.mask]
	}
	return m.getChecked(a)
}

// getChecked reads an operand of an unscoped program, where the frame may
// run another procedure's node: only the frame's own variables are in its
// slots, every other local in its overflow map.
func (m *machine) getChecked(a *arg) int64 {
	switch a.owner {
	case m.proc:
		return m.vals[m.base+a.slot]
	case absOwner:
		return m.vals[a.slot]
	}
	if a.kind == argBad {
		panic(fmt.Sprintf("interp: variable %d out of the arena", a.v))
	}
	return m.frames[len(m.frames)-1].overflow[a.v]
}

// set writes a decoded destination (never a constant) in the innermost
// frame.
func (m *machine) set(a *arg, x int64) {
	if m.scoped {
		m.vals[a.slot+m.base&a.mask] = x
		return
	}
	m.setChecked(a, x)
}

func (m *machine) setChecked(a *arg, x int64) {
	switch a.owner {
	case m.proc:
		m.vals[m.base+a.slot] = x
		return
	case absOwner:
		m.vals[a.slot] = x
		return
	}
	if a.kind == argBad {
		panic(fmt.Sprintf("interp: variable %d out of the arena", a.v))
	}
	f := &m.frames[len(m.frames)-1]
	if f.overflow == nil {
		f.overflow = make(map[ir.VarID]int64)
	}
	f.overflow[a.v] = x
}

// addrErr checks a heap access, returning the fault it raises, if any.
func (m *machine) addrErr(id int32, in *instr, ptr, idx int64) error {
	if ptr == 0 {
		return &RuntimeError{Node: ir.NodeID(id), Line: int(in.line), Msg: "nil pointer dereference"}
	}
	addr := ptr + idx
	if addr < 1 || addr >= int64(len(m.heap)) {
		return &RuntimeError{Node: ir.NodeID(id), Line: int(in.line),
			Msg: fmt.Sprintf("heap access out of bounds (addr %d, heap size %d)", addr, len(m.heap))}
	}
	return nil
}

// Run executes one input from main's entry until main's exit. The
// returned Result is valid (partially filled) even when an error occurred.
func (d *Prepared) Run(opts Options) (*Result, error) {
	m := &machine{
		d:      d,
		vals:   slices.Clone(d.init),
		scoped: d.scoped,
		heap:   make([]int64, 1), // heap[0] unused; 0 is the nil pointer
		input:  opts.Input,
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	var counts []int64
	if opts.Profile {
		counts = make([]int64, len(d.code))
	}
	var (
		output            []int64
		steps, ops, conds int64
		retVal            int64 // value carried from an exit to its call-site exit
		err               error
		code, pc          = d.code, d.start
		errAt             = func(id int32, msg string) error {
			return &RuntimeError{Node: ir.NodeID(id), Line: int(code[id].line), Msg: msg}
		}
	)
	m.push(int32(d.mainProc), -1)

loop:
	for {
		if pc < 0 {
			if pc == badSucc {
				panic("interp: branch arm missing")
			}
			err = &RuntimeError{Node: ir.NoNode, Line: 0, Msg: "control reached a deleted node"}
			break
		}
		steps++
		if steps > maxSteps {
			err = &RuntimeError{Node: ir.NodeID(pc), Line: int(code[pc].line), Msg: "step limit exceeded", Err: ErrStepLimit}
			break
		}
		if counts != nil {
			counts[pc]++
		}
		in := &code[pc]
		if in.isOp {
			ops++
		}
		var v int64
		switch in.op {
		case opGoto:
			pc = in.next
			continue
		case opAssert:
			// Asserts are compiler-established facts; a violation means the
			// graph was miscompiled or incorrectly restructured.
			x := m.get(&in.a)
			if !in.condOp.Eval(x, m.get(&in.b)) {
				n := d.prog.Nodes[pc]
				err = errAt(pc, fmt.Sprintf("internal: assertion %s %s violated (value %d)",
					d.prog.VarName(n.AVar), n.APred, x))
				break loop
			}
			pc = in.next
			continue
		case opConst:
			v = m.vals[in.a.slot]
		case opCopy:
			v = m.get(&in.a)
		case opNeg:
			v = -m.get(&in.a)
		case opByte:
			v = m.get(&in.a) & 0xFF
		case opAdd:
			v = m.get(&in.a) + m.get(&in.b)
		case opSub:
			v = m.get(&in.a) - m.get(&in.b)
		case opMul:
			v = m.get(&in.a) * m.get(&in.b)
		case opDiv, opMod:
			a, b := m.get(&in.a), m.get(&in.b)
			switch {
			case b == 0 && in.op == opDiv:
				err = errAt(pc, "division by zero")
				break loop
			case b == 0:
				err = errAt(pc, "modulo by zero")
				break loop
			case a == math.MinInt64 && b == -1:
				// Wraparound, matching hardware: the quotient overflows back
				// to MinInt64 and the remainder is 0.
				v = 0
				if in.op == opDiv {
					v = math.MinInt64
				}
			case in.op == opDiv:
				v = a / b
			default:
				v = a % b
			}
		case opBadBinop:
			m.get(&in.a)
			m.get(&in.b)
			err = errAt(pc, "internal: unknown binop")
			break loop
		case opLoad:
			ptr, idx := m.get(&in.a), m.get(&in.b)
			if err = m.addrErr(pc, in, ptr, idx); err != nil {
				break loop
			}
			v = m.heap[ptr+idx]
		case opAlloc:
			size := m.get(&in.a)
			if size < 0 || size > 1<<24 {
				err = errAt(pc, fmt.Sprintf("invalid allocation size %d", size))
				break loop
			}
			v = int64(len(m.heap))
			m.heap = append(m.heap, make([]int64, size)...)
		case opInput:
			v = -1
			if m.inPos < len(m.input) {
				v = m.input[m.inPos]
				m.inPos++
			}
		case opBadRHS:
			err = errAt(pc, "internal: unknown rhs kind")
			break loop
		case opBranch:
			conds++
			if in.condOp.Eval(m.get(&in.a), m.get(&in.b)) {
				pc = in.next
			} else {
				pc = in.alt
			}
			continue
		case opPrint:
			output = append(output, m.get(&in.a))
			pc = in.next
			continue
		case opStore:
			ptr, idx := m.get(&in.a), m.get(&in.b)
			if err = m.addrErr(pc, in, ptr, idx); err != nil {
				break loop
			}
			m.heap[ptr+idx] = m.get(&in.c)
			pc = in.next
			continue
		case opCall:
			cs := &d.calls[in.aux]
			// Arguments are read in the caller's frame, formals bound in the
			// callee's; the two never alias, so reading first is exact.
			m.argv = m.argv[:0]
			for i := cs.lo; i < cs.hi; i++ {
				m.argv = append(m.argv, m.get(&d.args[i]))
			}
			m.push(cs.callee, pc)
			for i, x := range m.argv {
				m.set(&d.formals[cs.lo+int32(i)], x)
			}
			pc = cs.entry
			continue
		case opExit:
			top := m.frames[len(m.frames)-1]
			retVal = m.get(&d.ret[top.proc])
			m.frames = m.frames[:len(m.frames)-1]
			m.vals = m.vals[:top.base]
			if top.callNode < 0 {
				// main returned: program halts.
				break loop
			}
			if len(m.frames) > 0 {
				f := &m.frames[len(m.frames)-1]
				m.proc, m.base = f.proc, f.base
			}
			ret := int32(-1)
			sp := d.exits[in.aux]
			for _, rp := range d.rets[sp.lo:sp.hi] {
				if rp.call == top.callNode {
					ret = rp.ce
					break
				}
			}
			if ret < 0 {
				err = errAt(pc, fmt.Sprintf("internal: exit of %s has no return point for call node %d",
					d.prog.Procs[d.prog.Nodes[pc].Proc].Name, top.callNode))
				break loop
			}
			pc = ret
			continue
		case opCallExit:
			v = retVal
		case opBadKind:
			err = errAt(pc, fmt.Sprintf("internal: unexecutable node kind %s", d.prog.Nodes[pc].Kind))
			break loop
		default:
			panic(fmt.Sprintf("interp: malformed node %d", pc))
		}
		if in.write {
			m.set(&in.c, v)
		}
		pc = in.next
	}

	res := &Result{Output: output, Steps: steps, Operations: ops, CondExecs: conds}
	if counts != nil {
		res.ExecCount = make(map[ir.NodeID]int64)
		for id, c := range counts {
			if c > 0 {
				res.ExecCount[ir.NodeID(id)] = c
			}
		}
	}
	return res, err
}
