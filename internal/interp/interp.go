// Package interp executes ICFG programs directly. It serves two roles in
// the reproduction: it produces the dynamic profiles (per-node execution
// counts) that weight the paper's dynamic measurements, and it is the
// semantic oracle for the restructuring transformation — an optimized
// program must produce identical output and must not execute more
// operations than the original on any input.
package interp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"icbe/internal/ir"
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

// frame is one procedure activation. The procedure's own variables live in
// the machine's value stack at base plus their ir.LocalSlots slot. A local
// of another procedure — reachable only on programs that fail ir.Validate —
// lives in the lazily allocated overflow map instead, which keeps the
// semantics of a per-frame variable map: unwritten reads yield 0 and writes
// stay in this frame.
type frame struct {
	proc     int
	callNode ir.NodeID // NCall node that created this frame; NoNode for main
	base     int
	overflow map[ir.VarID]int64
}

type machine struct {
	prog    *ir.Program
	opts    Options
	globals []int64
	heap    []int64
	// slot and count are the program's ir.LocalSlots layout; stack holds
	// every live frame's own variables, frame after frame.
	slot   []int32
	count  []int32
	stack  []int64
	frames []frame
	inPos  int
	res    *Result
}

// Run executes the program from main's entry until main's exit. The
// returned Result is valid (partially filled) even when an error occurred.
func Run(p *ir.Program, opts Options) (*Result, error) {
	m := &machine{
		prog:    p,
		opts:    opts,
		globals: make([]int64, len(p.Vars)),
		heap:    make([]int64, 1), // heap[0] unused; 0 is the nil pointer
		res:     &Result{},
	}
	m.slot, m.count = ir.LocalSlots(p)
	if opts.Profile {
		m.res.ExecCount = make(map[ir.NodeID]int64)
	}
	for _, v := range p.Vars {
		if v.IsGlobal() {
			m.globals[v.ID] = v.Init
		}
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}

	main := p.Procs[p.MainProc]
	m.push(p.MainProc, ir.NoNode)
	cur := p.Node(main.Entries[0])
	var retVal int64 // value carried from an exit to its call-site exit

	for {
		if cur == nil {
			return m.res, &RuntimeError{Node: ir.NoNode, Line: 0, Msg: "control reached a deleted node"}
		}
		m.res.Steps++
		if m.res.Steps > maxSteps {
			return m.res, &RuntimeError{Node: cur.ID, Line: cur.Line, Msg: "step limit exceeded", Err: ErrStepLimit}
		}
		if m.res.ExecCount != nil {
			m.res.ExecCount[cur.ID]++
		}
		if cur.IsOperation() {
			m.res.Operations++
		}

		switch cur.Kind {
		case ir.NEntry, ir.NNop:
			cur = m.onlySucc(cur)

		case ir.NAssert:
			// Asserts are compiler-established facts; a violation means the
			// graph was miscompiled or incorrectly restructured.
			if !cur.APred.Eval(m.read(cur.AVar)) {
				return m.res, &RuntimeError{Node: cur.ID, Line: cur.Line,
					Msg: fmt.Sprintf("internal: assertion %s %s violated (value %d)",
						m.prog.VarName(cur.AVar), cur.APred, m.read(cur.AVar))}
			}
			cur = m.onlySucc(cur)

		case ir.NAssign:
			v, err := m.evalRHS(cur)
			if err != nil {
				return m.res, err
			}
			m.write(cur.Dst, v)
			cur = m.onlySucc(cur)

		case ir.NBranch:
			m.res.CondExecs++
			lhs := m.read(cur.CondVar)
			rhs := cur.CondRHS.Const
			if !cur.CondRHS.IsConst {
				rhs = m.read(cur.CondRHS.Var)
			}
			if cur.CondOp.Eval(lhs, rhs) {
				cur = m.prog.Node(cur.TrueSucc())
			} else {
				cur = m.prog.Node(cur.FalseSucc())
			}

		case ir.NPrint:
			m.res.Output = append(m.res.Output, m.operand(cur.Val))
			cur = m.onlySucc(cur)

		case ir.NStore:
			ptr := m.read(cur.Ptr)
			idx := m.operand(cur.Idx)
			if err := m.checkAddr(cur, ptr, idx); err != nil {
				return m.res, err
			}
			m.heap[ptr+idx] = m.operand(cur.Val)
			cur = m.onlySucc(cur)

		case ir.NCall:
			callee := m.prog.Procs[cur.Callee]
			m.push(cur.Callee, cur.ID)
			caller, nf := &m.frames[len(m.frames)-2], &m.frames[len(m.frames)-1]
			for i, formal := range callee.Formals {
				m.setLocal(nf, formal, m.readIn(caller, cur.Args[i]))
			}
			cur = m.prog.EntrySucc(cur)

		case ir.NExit:
			top := m.frames[len(m.frames)-1]
			retVal = m.read(m.prog.Procs[top.proc].RetVar)
			m.frames = m.frames[:len(m.frames)-1]
			m.stack = m.stack[:top.base]
			if top.callNode == ir.NoNode {
				// main returned: program halts.
				return m.res, nil
			}
			var ret *ir.Node
			for _, s := range cur.Succs {
				ce := m.prog.Node(s)
				if ce == nil || ce.Kind != ir.NCallExit {
					continue
				}
				if cp := m.prog.CallPred(ce); cp != nil && cp.ID == top.callNode {
					ret = ce
					break
				}
			}
			if ret == nil {
				return m.res, &RuntimeError{Node: cur.ID, Line: cur.Line,
					Msg: fmt.Sprintf("internal: exit of %s has no return point for call node %d",
						m.prog.Procs[cur.Proc].Name, top.callNode)}
			}
			cur = ret

		case ir.NCallExit:
			if cur.Dst != ir.NoVar {
				m.write(cur.Dst, retVal)
			}
			cur = m.onlySucc(cur)

		default:
			return m.res, &RuntimeError{Node: cur.ID, Line: cur.Line,
				Msg: fmt.Sprintf("internal: unexecutable node kind %s", cur.Kind)}
		}
	}
}

func (m *machine) onlySucc(n *ir.Node) *ir.Node {
	if len(n.Succs) != 1 {
		return nil
	}
	return m.prog.Node(n.Succs[0])
}

// push activates a frame for proc with its own variables zeroed.
func (m *machine) push(proc int, callNode ir.NodeID) {
	base := len(m.stack)
	m.stack = slices.Grow(m.stack, int(m.count[proc]))[:base+int(m.count[proc])]
	clear(m.stack[base:])
	m.frames = append(m.frames, frame{proc: proc, callNode: callNode, base: base})
}

func (m *machine) read(v ir.VarID) int64 {
	return m.readIn(&m.frames[len(m.frames)-1], v)
}

func (m *machine) write(v ir.VarID, x int64) {
	if m.prog.Vars[v].IsGlobal() {
		m.globals[v] = x
		return
	}
	m.setLocal(&m.frames[len(m.frames)-1], v, x)
}

// readIn reads v as seen from frame f.
func (m *machine) readIn(f *frame, v ir.VarID) int64 {
	if m.prog.Vars[v].IsGlobal() {
		return m.globals[v]
	}
	if i := m.stackPos(f, v); i >= 0 {
		return m.stack[i]
	}
	return f.overflow[v]
}

// setLocal writes v into frame f's own storage.
func (m *machine) setLocal(f *frame, v ir.VarID, x int64) {
	if i := m.stackPos(f, v); i >= 0 {
		m.stack[i] = x
		return
	}
	if f.overflow == nil {
		f.overflow = make(map[ir.VarID]int64)
	}
	f.overflow[v] = x
}

// stackPos returns the value-stack index of v in frame f, or -1 when v is
// not one of f's procedure's own variables.
func (m *machine) stackPos(f *frame, v ir.VarID) int {
	if v < 0 || int(v) >= len(m.slot) || m.slot[v] < 0 || m.prog.Vars[v].Proc != f.proc {
		return -1
	}
	return f.base + int(m.slot[v])
}

func (m *machine) operand(o ir.Operand) int64 {
	if o.IsConst {
		return o.Const
	}
	return m.read(o.Var)
}

func (m *machine) checkAddr(n *ir.Node, ptr, idx int64) error {
	if ptr == 0 {
		return &RuntimeError{Node: n.ID, Line: n.Line, Msg: "nil pointer dereference"}
	}
	addr := ptr + idx
	if addr < 1 || addr >= int64(len(m.heap)) {
		return &RuntimeError{Node: n.ID, Line: n.Line,
			Msg: fmt.Sprintf("heap access out of bounds (addr %d, heap size %d)", addr, len(m.heap))}
	}
	return nil
}

func (m *machine) evalRHS(n *ir.Node) (int64, error) {
	r := n.RHS
	switch r.Kind {
	case ir.RConst:
		return r.Const, nil
	case ir.RCopy:
		return m.read(r.Src), nil
	case ir.RNeg:
		return -m.read(r.Src), nil
	case ir.RByte:
		return m.read(r.Src) & 0xFF, nil
	case ir.RBinop:
		a := m.operand(r.A)
		b := m.operand(r.B)
		switch r.Op {
		case ir.OpAdd:
			return a + b, nil
		case ir.OpSub:
			return a - b, nil
		case ir.OpMul:
			return a * b, nil
		case ir.OpDiv:
			if b == 0 {
				return 0, &RuntimeError{Node: n.ID, Line: n.Line, Msg: "division by zero"}
			}
			if a == math.MinInt64 && b == -1 {
				return math.MinInt64, nil // wraparound, matching hardware
			}
			return a / b, nil
		case ir.OpMod:
			if b == 0 {
				return 0, &RuntimeError{Node: n.ID, Line: n.Line, Msg: "modulo by zero"}
			}
			if a == math.MinInt64 && b == -1 {
				return 0, nil
			}
			return a % b, nil
		}
		return 0, &RuntimeError{Node: n.ID, Line: n.Line, Msg: "internal: unknown binop"}
	case ir.RLoad:
		ptr := m.read(r.Src)
		idx := m.operand(r.A)
		if err := m.checkAddr(n, ptr, idx); err != nil {
			return 0, err
		}
		return m.heap[ptr+idx], nil
	case ir.RAlloc:
		size := m.operand(r.A)
		if size < 0 || size > 1<<24 {
			return 0, &RuntimeError{Node: n.ID, Line: n.Line,
				Msg: fmt.Sprintf("invalid allocation size %d", size)}
		}
		base := int64(len(m.heap))
		m.heap = append(m.heap, make([]int64, size)...)
		return base, nil
	case ir.RInput:
		if m.inPos >= len(m.opts.Input) {
			return -1, nil
		}
		v := m.opts.Input[m.inPos]
		m.inPos++
		return v, nil
	}
	return 0, &RuntimeError{Node: n.ID, Line: n.Line, Msg: "internal: unknown rhs kind"}
}
