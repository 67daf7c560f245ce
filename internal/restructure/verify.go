package restructure

import (
	"errors"
	"fmt"
	"time"

	"icbe/internal/interp"
	"icbe/internal/ir"
)

// verifyMaxSteps bounds each shadow run of the pre-apply program so
// verification cannot stall the driver on a slow workload; inputs whose
// original run exhausts the budget are skipped, not failed (the step-limit
// error is typed, so "too slow" never masquerades as "wrong").
const verifyMaxSteps = 2_000_000

// shadowRun is one baseline execution of the working program on one input.
type shadowRun struct {
	done bool
	res  *interp.Result
	err  error
}

// shadowOracle is the differential shadow-execution gate with a carried
// baseline. The pre-apply program of every attempt is the working program,
// and the working program is always the post-apply program of the last
// adopted attempt, so the oracle keeps that revision's runs (one per input)
// and decode, and each attempt executes only its post-apply program,
// decoded once for all inputs. That decode re-decodes only the attempt's
// diff against the working revision's decode (interp.PrepareFrom), into
// the storage of a dead decode. The runs and decode of an attempt that
// passes are held as pending until the driver adopts that exact revision;
// a run of the working program happens at most once per revision and only
// for inputs whose carried run is missing.
//
// Revisions are keyed by the driver's revision numbers, not by program
// pointers: the driver recycles dead programs as later scratch clones, so a
// pointer can come back holding a different program.
type shadowOracle struct {
	inputs [][]int64
	// runs holds one baseline run per input of revision rev.
	rev  int
	runs []shadowRun
	// decs holds two decodes, like storePair: decs[cur] is revision
	// decRev's (0 for none), the other one the storage the next attempt
	// decodes into, and after a passing attempt that attempt's decode.
	decs   [2]*interp.Prepared
	cur    int
	decRev int
	// pendingRev/pending hold the runs of the last attempt that passed,
	// the baseline of the next revision if the driver adopts it.
	pendingRev int
	pending    []shadowRun
}

func newShadowOracle(inputs [][]int64) *shadowOracle {
	return &shadowOracle{inputs: inputs}
}

// working returns the decode of working revision preRev, decoding it in
// full when the oracle holds none.
func (o *shadowOracle) working(pre *ir.Program, preRev int) *interp.Prepared {
	if o.decRev != preRev {
		o.decs[o.cur] = interp.PrepareFrom(o.decs[o.cur], nil, pre, nil)
		o.decRev = preRev
	}
	return o.decs[o.cur]
}

// baseline returns the pre-apply program's run on input i, executing it
// only when no carried run exists.
func (o *shadowOracle) baseline(pre *ir.Program, preRev int, i int) shadowRun {
	if o.rev != preRev {
		o.rev, o.runs = preRev, make([]shadowRun, len(o.inputs))
	}
	if !o.runs[i].done {
		res, err := o.working(pre, preRev).Run(interp.Options{Input: o.inputs[i], MaxSteps: verifyMaxSteps})
		o.runs[i] = shadowRun{done: true, res: res, err: err}
	}
	return o.runs[i]
}

// decodePost decodes the post-apply program into the spare storage: the
// attempt's delta on the working revision's decode, or in full when the
// diff does not scope.
func (o *shadowOracle) decodePost(pre *ir.Program, preRev int, post *ir.Program, diff *revDiff) *interp.Prepared {
	var base *interp.Prepared
	var changed []ir.NodeID
	if diff != nil && !diff.all {
		base, changed = o.working(pre, preRev), diff.nodes
	}
	spare := 1 - o.cur
	o.decs[spare] = interp.PrepareFrom(o.decs[spare], base, post, changed)
	return o.decs[spare]
}

// carry turns a passing post-apply run into the next revision's baseline
// run for the same input. A run longer than verifyMaxSteps is one a fresh
// baseline execution would have cut off at the budget, so it is carried as
// that step-limit skip.
func carry(res *interp.Result, err error) shadowRun {
	if res.Steps > verifyMaxSteps {
		err = interp.ErrStepLimit
	}
	return shadowRun{done: true, res: res, err: err}
}

// verify differentially executes the pre- and post-apply programs over the
// oracle's inputs and returns a typed failure when the restructuring
// violated the paper's guarantee: output must be identical and the
// optimized program must never execute more operations (§3.2). Fault
// behaviour must be preserved too — a run that faults must keep faulting,
// with the same output prefix. The pre-apply side comes from the carried
// baseline; VerifyRuns counts one comparison per input either way. diff is
// the attempt's diff against pre (nil for none), which scopes the decode.
func (o *shadowOracle) verify(pre *ir.Program, preRev int, post *ir.Program, postRev int, diff *revDiff, stats *DriverStats) *BranchFailure {
	t0 := time.Now()
	defer func() { stats.VerifyWall += time.Since(t0) }()
	o.pendingRev, o.pending = 0, nil
	postDec := o.decodePost(pre, preRev, post, diff)
	next := make([]shadowRun, len(o.inputs))
	for i, in := range o.inputs {
		stats.VerifyRuns++
		base := o.baseline(pre, preRev, i)
		preRes, preErr := base.res, base.err
		if errors.Is(preErr, interp.ErrStepLimit) {
			// The original program is too slow for the shadow budget on
			// this input; there is nothing sound to compare against.
			continue
		}
		// Steps count synthetic nodes too, which restructuring may add
		// even though operations never grow, so the post budget is the
		// original's step count with generous slack rather than an equal
		// bound.
		postRes, postErr := postDec.Run(interp.Options{Input: in, MaxSteps: 2*preRes.Steps + 4096})
		if errors.Is(postErr, interp.ErrStepLimit) {
			return &BranchFailure{Kind: FailOpGrowth, Msg: fmt.Sprintf(
				"shadow run exceeded its step budget on input %v (original: %d steps)", in, preRes.Steps)}
		}
		if (preErr != nil) != (postErr != nil) {
			return &BranchFailure{Kind: FailDiffMismatch, Err: firstErr(preErr, postErr), Msg: fmt.Sprintf(
				"fault behaviour changed on input %v (original error: %v, optimized error: %v)", in, preErr, postErr)}
		}
		if !equalInt64s(preRes.Output, postRes.Output) {
			return &BranchFailure{Kind: FailDiffMismatch, Msg: fmt.Sprintf(
				"output changed on input %v: %v -> %v", in, preRes.Output, postRes.Output)}
		}
		if postRes.Operations > preRes.Operations {
			return &BranchFailure{Kind: FailOpGrowth, Msg: fmt.Sprintf(
				"executed operations grew on input %v: %d -> %d", in, preRes.Operations, postRes.Operations)}
		}
		next[i] = carry(postRes, postErr)
	}
	o.pendingRev, o.pending = postRev, next
	return nil
}

// runsOf returns the carried runs of the given revision, nil when the
// oracle holds another one.
func (o *shadowOracle) runsOf(rev int) []shadowRun {
	if o.rev != rev {
		return nil
	}
	return o.runs
}

// adopt promotes the pending runs and decode to the baseline when the
// driver commits that revision as the new working program; the superseded
// decode's storage becomes the next attempt's.
func (o *shadowOracle) adopt(rev int) {
	if o.pendingRev == rev {
		o.rev, o.runs = rev, o.pending
		o.cur, o.decRev = 1-o.cur, rev
	}
	o.pendingRev, o.pending = 0, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func equalInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyInputs builds the shadow-execution input set: the caller's
// workload vectors first, then the built-in vectors that cover the EOF
// model (empty stream), boundary values, and pseudo-random streams.
func verifyInputs(opts DriverOptions) [][]int64 {
	out := append([][]int64(nil), opts.VerifyInputs...)
	out = append(out,
		nil,
		[]int64{0},
		[]int64{1, 2, 3, 4, 5, 6, 7, 8},
		[]int64{-1, -2, -3, 0, 1, -128, 255, 256},
	)
	// Pseudo-random vectors from the same splitmix64 generator randprog
	// uses, so the fuzz harness and the driver probe comparable input
	// distributions. Fixed seeds keep driver results reproducible.
	for _, sv := range []struct {
		seed uint64
		n    int
	}{{3, 6}, {17, 11}, {99, 17}} {
		out = append(out, splitmixInputs(sv.seed, sv.n))
	}
	return out
}

func splitmixInputs(seed uint64, n int) []int64 {
	s := seed*2654435761 + 1
	v := make([]int64, n)
	for i := range v {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		v[i] = int64(z%257) - 128
	}
	return v
}
