// Package sim implements logic simulation for the netlists of package
// circuit, with fault-injection hooks, on two engines.
//
// The compiled kernel (Compile, BatchEngine; kernel.go) runs every
// fault-simulation pass in the repository — fsim's passes, seqgen's
// fault groups and tfault's capture frames — over 64*W parallel slots.
//
// The interpreter Engine carries 64 slots and walks the netlist gate by
// gate. It serves good-machine runs (RunSequence, EvalCombScalar,
// tfault's and response's good machines), PODEM's good/bad pair, and is
// the node-exact reference the kernel is tested against.
package sim

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Injection forces a stuck value onto a signal in a subset of slots.
// Pin == -1 forces the output of Node (a stem fault); Pin >= 0 forces the
// value Node reads from its Pin-th fanin (a branch/input fault).
type Injection struct {
	Node  int
	Pin   int
	Stuck logic.Value
	Mask  uint64
}

// Engine evaluates one circuit over 64 parallel slots.
type Engine struct {
	c    *circuit.Circuit
	vals []logic.Word // current signal value per node

	// Injections grouped for the evaluation loop. Indexed by node for
	// O(1) lookup in the inner evaluation loop; touched tracks which
	// entries must be cleared when injections change. The flag arrays
	// let the hot path skip slice-header loads for the (vast) majority
	// of uninjected nodes.
	outInj   [][]Injection // by node whose output is forced
	pinInj   [][]Injection // by consumer node
	outFlag  []bool
	pinFlag  []bool
	touched  []int
	injected bool
	srcInj   []int // injected source nodes, forced at EvalComb start

	scratch []logic.Word // per-DFF next-state buffer
	consts  []int        // constant-driver nodes, set each EvalComb
}

// New returns an Engine for c with all signals X.
func New(c *circuit.Circuit) *Engine {
	e := &Engine{
		c:       c,
		vals:    make([]logic.Word, c.NumNodes()),
		outInj:  make([][]Injection, c.NumNodes()),
		pinInj:  make([][]Injection, c.NumNodes()),
		outFlag: make([]bool, c.NumNodes()),
		pinFlag: make([]bool, c.NumNodes()),
		scratch: make([]logic.Word, c.NumFFs()),
	}
	for i := range c.Nodes {
		switch c.Nodes[i].Kind {
		case circuit.Const0, circuit.Const1:
			e.consts = append(e.consts, i)
		}
	}
	e.Reset()
	return e
}

// Circuit returns the netlist this engine simulates.
func (e *Engine) Circuit() *circuit.Circuit { return e.c }

// Reset sets every signal and every flip-flop to X in all slots and
// clears injections.
func (e *Engine) Reset() {
	for i := range e.vals {
		e.vals[i] = logic.AllX
	}
	e.clearInjections()
}

func (e *Engine) clearInjections() {
	for _, n := range e.touched {
		// Truncate instead of nil: fault simulation re-injects the same
		// nodes over and over (one batch after another over one fault
		// list), so keeping the per-node capacity warm avoids an
		// allocation per injection per pass.
		e.outInj[n] = e.outInj[n][:0]
		e.pinInj[n] = e.pinInj[n][:0]
		e.outFlag[n] = false
		e.pinFlag[n] = false
	}
	e.touched = e.touched[:0]
	e.srcInj = e.srcInj[:0]
	e.injected = false
}

// SetInjections installs the active fault injections, replacing any
// previous set.
func (e *Engine) SetInjections(injs []Injection) {
	e.clearInjections()
	if len(injs) == 0 {
		return
	}
	e.injected = true
	for _, in := range injs {
		if !e.outFlag[in.Node] && !e.pinFlag[in.Node] {
			e.touched = append(e.touched, in.Node)
		}
		if in.Pin < 0 {
			e.outInj[in.Node] = append(e.outInj[in.Node], in)
			e.outFlag[in.Node] = true
			if e.c.IsSource(in.Node) {
				e.srcInj = append(e.srcInj, in.Node)
			}
		} else {
			e.pinInj[in.Node] = append(e.pinInj[in.Node], in)
			e.pinFlag[in.Node] = true
		}
	}
}

// SetPI sets the word value of the i-th primary input.
func (e *Engine) SetPI(i int, w logic.Word) { e.vals[e.c.PIs[i]] = w }

// SetPIVector broadcasts a scalar PI vector to all slots.
func (e *Engine) SetPIVector(vec logic.Vector) {
	for i := range e.c.PIs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		e.vals[e.c.PIs[i]] = logic.FromValue(v)
	}
}

// SetPIPatterns loads up to 64 PI vectors, one per slot. Slots beyond
// len(patterns) carry X.
func (e *Engine) SetPIPatterns(patterns []logic.Vector) {
	for i := range e.c.PIs {
		var w logic.Word
		for s, p := range patterns {
			v := logic.X
			if i < len(p) {
				v = p[i]
			}
			w = w.Set(uint(s), v)
		}
		e.vals[e.c.PIs[i]] = w
	}
}

// SetState sets the word value of the i-th flip-flop (scan order).
func (e *Engine) SetState(i int, w logic.Word) { e.vals[e.c.DFFs[i]] = w }

// SetStateVector broadcasts a scalar state (scan-in vector) to all slots.
func (e *Engine) SetStateVector(vec logic.Vector) {
	for i := range e.c.DFFs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		e.vals[e.c.DFFs[i]] = logic.FromValue(v)
	}
}

// State returns the word value of the i-th flip-flop.
func (e *Engine) State(i int) logic.Word { return e.vals[e.c.DFFs[i]] }

// StateWords copies the current flip-flop values into dst (allocating if
// nil) and returns it.
func (e *Engine) StateWords(dst []logic.Word) []logic.Word {
	if dst == nil {
		dst = make([]logic.Word, e.c.NumFFs())
	}
	for i, ff := range e.c.DFFs {
		dst[i] = e.vals[ff]
	}
	return dst
}

// LoadStateWords sets all flip-flop values from src.
func (e *Engine) LoadStateWords(src []logic.Word) {
	for i, ff := range e.c.DFFs {
		e.vals[ff] = src[i]
	}
}

// Val returns the current word value of node n.
func (e *Engine) Val(n int) logic.Word { return e.vals[n] }

// SetNode sets the word value of an arbitrary node. Values written to
// non-source nodes are overwritten by the next EvalComb; the method
// exists so callers like the ATPG can drive PIs and state lines through
// one uniform interface.
func (e *Engine) SetNode(n int, w logic.Word) { e.vals[n] = w }

// PO returns the word value of the i-th primary output.
func (e *Engine) PO(i int) logic.Word { return e.vals[e.c.POs[i]] }

// force applies output injections for node n to w.
func (e *Engine) force(n int, w logic.Word) logic.Word {
	for _, in := range e.outInj[n] {
		w = w.Merge(logic.FromValue(in.Stuck), in.Mask)
	}
	return w
}

// fanin returns the value node n reads from its p-th fanin, with pin
// injections applied.
func (e *Engine) fanin(n, p int) logic.Word {
	w := e.vals[e.c.Nodes[n].Fanin[p]]
	if e.pinFlag[n] {
		for _, in := range e.pinInj[n] {
			if in.Pin == p {
				w = w.Merge(logic.FromValue(in.Stuck), in.Mask)
			}
		}
	}
	return w
}

// EvalComb evaluates the combinational network from the current PI and
// state values. Constants are driven, source-output injections applied,
// then gates evaluate in topological order.
func (e *Engine) EvalComb() {
	c := e.c
	for _, i := range e.consts {
		if c.Nodes[i].Kind == circuit.Const0 {
			e.vals[i] = logic.AllZero
		} else {
			e.vals[i] = logic.AllOne
		}
	}
	for _, n := range e.srcInj {
		e.vals[n] = e.force(n, e.vals[n])
	}
	if !e.injected {
		for _, n := range c.EvalOrder() {
			e.vals[n] = e.evalGateFast(n)
		}
		return
	}
	for _, n := range c.EvalOrder() {
		var w logic.Word
		if e.pinFlag[n] {
			w = e.evalGate(n)
		} else {
			w = e.evalGateFast(n)
		}
		if e.outFlag[n] {
			w = e.force(n, w)
		}
		e.vals[n] = w
	}
}

// evalGateFast evaluates a gate reading fanin values directly, legal
// when the node has no pin injections.
func (e *Engine) evalGateFast(n int) logic.Word {
	nd := &e.c.Nodes[n]
	fan := nd.Fanin
	switch nd.Kind {
	case circuit.Not:
		return e.vals[fan[0]].Not()
	case circuit.Buf:
		return e.vals[fan[0]]
	case circuit.And, circuit.Nand:
		w := e.vals[fan[0]]
		for _, f := range fan[1:] {
			w = w.And(e.vals[f])
		}
		if nd.Kind == circuit.Nand {
			w = w.Not()
		}
		return w
	case circuit.Or, circuit.Nor:
		w := e.vals[fan[0]]
		for _, f := range fan[1:] {
			w = w.Or(e.vals[f])
		}
		if nd.Kind == circuit.Nor {
			w = w.Not()
		}
		return w
	case circuit.Xor, circuit.Xnor:
		w := e.vals[fan[0]]
		for _, f := range fan[1:] {
			w = w.Xor(e.vals[f])
		}
		if nd.Kind == circuit.Xnor {
			w = w.Not()
		}
		return w
	}
	panic(fmt.Sprintf("sim: evalGateFast on non-gate node %d (%v)", n, nd.Kind))
}

func (e *Engine) evalGate(n int) logic.Word {
	nd := &e.c.Nodes[n]
	switch nd.Kind {
	case circuit.Not:
		return e.fanin(n, 0).Not()
	case circuit.Buf:
		return e.fanin(n, 0)
	case circuit.And, circuit.Nand:
		w := logic.AllOne
		for p := range nd.Fanin {
			w = w.And(e.fanin(n, p))
		}
		if nd.Kind == circuit.Nand {
			w = w.Not()
		}
		return w
	case circuit.Or, circuit.Nor:
		w := logic.AllZero
		for p := range nd.Fanin {
			w = w.Or(e.fanin(n, p))
		}
		if nd.Kind == circuit.Nor {
			w = w.Not()
		}
		return w
	case circuit.Xor, circuit.Xnor:
		w := logic.AllZero
		for p := range nd.Fanin {
			w = w.Xor(e.fanin(n, p))
		}
		if nd.Kind == circuit.Xnor {
			w = w.Not()
		}
		return w
	}
	panic(fmt.Sprintf("sim: evalGate on non-gate node %d (%v)", n, nd.Kind))
}

// nextStateInto computes each flip-flop's D value (with DFF pin
// injections applied) into dst.
func (e *Engine) nextStateInto(dst []logic.Word) {
	for i, ff := range e.c.DFFs {
		w := e.fanin(ff, 0)
		dst[i] = w
	}
}

// NextState returns the D values the flip-flops would latch on the next
// functional clock. EvalComb must have been called for the current
// inputs.
func (e *Engine) NextState() []logic.Word {
	dst := make([]logic.Word, e.c.NumFFs())
	e.nextStateInto(dst)
	return dst
}

// ClockFF latches the current D values into the flip-flops, applying any
// output injections on DFF nodes (a stuck flip-flop output stays stuck).
func (e *Engine) ClockFF() {
	e.nextStateInto(e.scratch)
	for i, ff := range e.c.DFFs {
		w := e.scratch[i]
		if e.outFlag[ff] {
			w = e.force(ff, w)
		}
		e.vals[ff] = w
	}
}

// Step applies one functional clock cycle: evaluate the combinational
// network, then latch the flip-flops. The PO values observed for this
// cycle are those after EvalComb and before the latch.
func (e *Engine) Step() {
	e.EvalComb()
	e.ClockFF()
}
