// Package esim implements event-driven logic simulation: instead of
// evaluating every gate each cycle (the compiled/levelized strategy of
// package sim), only gates whose inputs changed are re-evaluated,
// propagating events level by level. For low-activity workloads —
// long sequences where few inputs toggle per cycle — the event-driven
// engine touches a small fraction of the netlist per cycle.
//
// The package is also an independent implementation of the simulation
// semantics: its results are cross-checked against package sim in both
// packages' tests, which guards the core engine that every experiment
// in this repository rests on.
package esim

import (
	"repro/internal/circuit"
	"repro/internal/logic"
)

// Engine is a scalar three-valued event-driven simulator.
type Engine struct {
	c    *circuit.Circuit
	vals []logic.Value

	// Per-level pending queues; dirty flags dedupe scheduling.
	levels  [][]int
	dirty   []bool
	maxLvl  int
	touched int // gates evaluated since the last ResetStats
	toggles int // value changes since the last ResetStats

	// Single stuck-at fault injection (InjectFault). faultNode == -1
	// means the fault-free machine. One fault per engine keeps the
	// semantics trivially auditable — this engine is the reference the
	// parallel-fault simulator is checked against, so it deliberately
	// trades speed for obviousness.
	faultNode int
	faultPin  int
	faultVal  logic.Value
}

// New returns an engine with all values X.
func New(c *circuit.Circuit) *Engine {
	e := &Engine{
		c:         c,
		vals:      make([]logic.Value, c.NumNodes()),
		dirty:     make([]bool, c.NumNodes()),
		maxLvl:    c.Depth(),
		faultNode: -1,
	}
	e.levels = make([][]int, e.maxLvl+1)
	for i := range e.vals {
		e.vals[i] = logic.X
	}
	// Constants are set once, and their readers evaluate at the first
	// Settle: no later event reaches a gate whose other inputs never
	// change.
	for i := range c.Nodes {
		switch c.Nodes[i].Kind {
		case circuit.Const0:
			e.vals[i] = logic.Zero
			e.scheduleFanout(i)
		case circuit.Const1:
			e.vals[i] = logic.One
			e.scheduleFanout(i)
		}
	}
	return e
}

// Circuit returns the simulated netlist.
func (e *Engine) Circuit() *circuit.Circuit { return e.c }

// Val returns the current value of node n.
func (e *Engine) Val(n int) logic.Value { return e.vals[n] }

// GatesEvaluated returns the number of gate evaluations since the last
// ResetStats (the activity measure event-driven simulation saves on).
func (e *Engine) GatesEvaluated() int { return e.touched }

// Toggles returns the number of signal value changes since the last
// ResetStats — the switching activity that drives dynamic power.
func (e *Engine) Toggles() int { return e.toggles }

// ResetStats zeroes the evaluation and toggle counters.
func (e *Engine) ResetStats() { e.touched, e.toggles = 0, 0 }

// SetPI drives the i-th primary input and schedules affected gates.
func (e *Engine) SetPI(i int, v logic.Value) { e.setSource(e.c.PIs[i], v) }

// SetPIVector drives all primary inputs.
func (e *Engine) SetPIVector(vec logic.Vector) {
	for i := range e.c.PIs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		e.SetPI(i, v)
	}
}

// SetState drives the i-th flip-flop output.
func (e *Engine) SetState(i int, v logic.Value) { e.setSource(e.c.DFFs[i], v) }

// SetStateVector drives all flip-flop outputs.
func (e *Engine) SetStateVector(vec logic.Vector) {
	for i := range e.c.DFFs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		e.SetState(i, v)
	}
}

// InjectFault installs a single stuck-at fault: pin == -1 forces the
// output of node, pin >= 0 forces the value node reads from its pin-th
// fanin. The fault takes effect immediately (the forced line is
// re-evaluated and its fanout scheduled) and stays active for the life
// of the engine; an engine carries at most one fault, so the reference
// fault simulator creates a fresh engine per fault.
func (e *Engine) InjectFault(node, pin int, stuck logic.Value) {
	e.faultNode, e.faultPin, e.faultVal = node, pin, stuck
	if pin < 0 {
		// Output fault: the line is stuck from time zero.
		if e.vals[node] != stuck {
			e.vals[node] = stuck
			e.toggles++
			e.scheduleFanout(node)
		}
		return
	}
	// Pin fault on a gate: re-evaluate it once so the stuck input takes
	// effect even if no event ever arrives on its other inputs. A pin
	// fault on a DFF (its D input) is applied by ClockFF instead.
	if e.c.Nodes[node].Kind != circuit.DFF && !e.dirty[node] {
		e.dirty[node] = true
		e.levels[e.c.Level(node)] = append(e.levels[e.c.Level(node)], node)
	}
}

func (e *Engine) setSource(n int, v logic.Value) {
	if v == logic.Z {
		v = logic.X
	}
	if n == e.faultNode && e.faultPin < 0 {
		v = e.faultVal // stuck source output overrides any drive
	}
	if e.vals[n] == v {
		return
	}
	e.vals[n] = v
	e.toggles++
	e.scheduleFanout(n)
}

func (e *Engine) scheduleFanout(n int) {
	for _, s := range e.c.Fanout(n) {
		if e.c.Nodes[s].Kind == circuit.DFF {
			continue // sequential edge: handled by ClockFF
		}
		if !e.dirty[s] {
			e.dirty[s] = true
			l := e.c.Level(s)
			e.levels[l] = append(e.levels[l], s)
		}
	}
}

// Settle propagates all pending events until the network is stable.
// Levelized scheduling guarantees each gate evaluates at most once per
// settle for a combinational (cycle-free) network.
func (e *Engine) Settle() {
	for l := 0; l <= e.maxLvl; l++ {
		queue := e.levels[l]
		e.levels[l] = e.levels[l][:0]
		for _, n := range queue {
			e.dirty[n] = false
			v := e.evalNode(n)
			e.touched++
			if v != e.vals[n] {
				e.vals[n] = v
				e.toggles++
				e.scheduleFanout(n)
			}
		}
	}
}

// evalNode evaluates gate n with the injected fault (if any) applied:
// an output fault pins the result, a pin fault overrides one input.
func (e *Engine) evalNode(n int) logic.Value {
	if n == e.faultNode {
		if e.faultPin < 0 {
			return e.faultVal
		}
		return e.evalPinFault(n)
	}
	return e.eval(n)
}

func (e *Engine) eval(n int) logic.Value {
	nd := &e.c.Nodes[n]
	switch nd.Kind {
	case circuit.Not:
		return e.vals[nd.Fanin[0]].Not()
	case circuit.Buf:
		return e.vals[nd.Fanin[0]]
	case circuit.And, circuit.Nand:
		v := logic.One
		for _, f := range nd.Fanin {
			v = v.And(e.vals[f])
		}
		if nd.Kind == circuit.Nand {
			v = v.Not()
		}
		return v
	case circuit.Or, circuit.Nor:
		v := logic.Zero
		for _, f := range nd.Fanin {
			v = v.Or(e.vals[f])
		}
		if nd.Kind == circuit.Nor {
			v = v.Not()
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := logic.Zero
		for _, f := range nd.Fanin {
			v = v.Xor(e.vals[f])
		}
		if nd.Kind == circuit.Xnor {
			v = v.Not()
		}
		return v
	}
	return e.vals[n]
}

// faninVal returns the value gate n reads from its p-th fanin, with the
// injected pin fault applied.
func (e *Engine) faninVal(n, p int) logic.Value {
	if n == e.faultNode && p == e.faultPin {
		return e.faultVal
	}
	return e.vals[e.c.Nodes[n].Fanin[p]]
}

// evalPinFault is eval for the one gate carrying a pin injection.
func (e *Engine) evalPinFault(n int) logic.Value {
	nd := &e.c.Nodes[n]
	switch nd.Kind {
	case circuit.Not:
		return e.faninVal(n, 0).Not()
	case circuit.Buf:
		return e.faninVal(n, 0)
	case circuit.And, circuit.Nand:
		v := logic.One
		for p := range nd.Fanin {
			v = v.And(e.faninVal(n, p))
		}
		if nd.Kind == circuit.Nand {
			v = v.Not()
		}
		return v
	case circuit.Or, circuit.Nor:
		v := logic.Zero
		for p := range nd.Fanin {
			v = v.Or(e.faninVal(n, p))
		}
		if nd.Kind == circuit.Nor {
			v = v.Not()
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := logic.Zero
		for p := range nd.Fanin {
			v = v.Xor(e.faninVal(n, p))
		}
		if nd.Kind == circuit.Xnor {
			v = v.Not()
		}
		return v
	}
	return e.vals[n]
}

// PO returns the value of the i-th primary output (after Settle).
func (e *Engine) PO(i int) logic.Value { return e.vals[e.c.POs[i]] }

// POVector returns all primary outputs.
func (e *Engine) POVector() logic.Vector {
	out := make(logic.Vector, e.c.NumPOs())
	for i := range e.c.POs {
		out[i] = e.PO(i)
	}
	return out
}

// ClockFF latches D values into the flip-flops and schedules the fanout
// of any flip-flop whose output changed. The injected fault applies
// here too: a stuck D input (pin fault) latches the stuck value, a
// stuck flip-flop output (output fault) stays stuck across the clock.
func (e *Engine) ClockFF() {
	next := make([]logic.Value, e.c.NumFFs())
	for i, ff := range e.c.DFFs {
		if ff == e.faultNode && e.faultPin == 0 {
			next[i] = e.faultVal
		} else {
			next[i] = e.vals[e.c.Nodes[ff].Fanin[0]]
		}
		if ff == e.faultNode && e.faultPin < 0 {
			next[i] = e.faultVal
		}
	}
	for i, ff := range e.c.DFFs {
		if e.vals[ff] != next[i] {
			e.vals[ff] = next[i]
			e.toggles++
			e.scheduleFanout(ff)
		}
	}
}

// Step applies one functional cycle: settle the combinational network
// for the current inputs, then latch.
func (e *Engine) Step(pi logic.Vector) logic.Vector {
	e.SetPIVector(pi)
	e.Settle()
	out := e.POVector()
	e.ClockFF()
	return out
}
