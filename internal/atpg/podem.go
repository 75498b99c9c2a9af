// Package atpg generates combinational test sets for the full-scan view
// of a sequential circuit: present-state lines are treated as freely
// assignable inputs (they are, under full scan) and next-state lines as
// observable outputs (they are, at scan-out).
//
// The deterministic engine is PODEM (Goel 1981): decisions are made only
// on primary inputs and present-state lines, objectives are derived from
// fault excitation and D-frontier propagation, and a backtrace maps each
// objective to an input assignment. A random-pattern phase precedes
// PODEM, and a reverse-order greedy pass compacts the final test set —
// standing in for the compact combinational test sets of Kajihara et al.
// [9] that the paper uses as the source of scan-in states.
package atpg

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/scoap"
	"repro/internal/sim"
)

// Status classifies the PODEM outcome for one fault.
type Status uint8

const (
	// Detected: a test was found.
	Detected Status = iota
	// Untestable: the search space was exhausted; the fault is redundant
	// in the combinational (full-scan) sense.
	Untestable
	// Aborted: the backtrack limit was hit before a conclusion.
	Aborted
)

// String returns the lower-case name of the status.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

// podem carries the state of PODEM runs on one engine. newSearch
// builds the part that does not depend on the fault once; target resets
// the rest for each fault.
type podem struct {
	c        *circuit.Circuit
	eng      *sim.BatchEngine // width 1: the good machine in slot 0, the faulty one in slot 1
	obs      []int            // observation nodes: POs and scanned DFF D drivers
	observed []bool           // per node: in obs
	limit    int
	tm       *scoap.Measures // backtrace guidance (nil = first-X heuristic)

	// inputs[i] is the node index of the i-th assignable input
	// (PIs first, then present-state lines); inpPos[n] is n's index in
	// inputs, or -1.
	inputs []int
	inpPos []int

	// The target fault and its search state.
	f          fault.Fault
	soDriver   int   // D driver of a faulty scanned flip-flop, or -1
	cone       []int // f.Node and its combinational fanouts, in EvalOrder
	frontier   []int // dFrontier's result, reused by every call
	assign     logic.Vector
	backtracks int

	// Visit stamps of target's cone walk and of xPathExists's searches:
	// a node is seen in the current walk when seen[n] == visit.
	seen  []uint32
	visit uint32
	stack []int
}

// maxBacktracks is the default PODEM backtrack limit.
const maxBacktracks = 100

// newPodem prepares a PODEM run for f on eng, a width-1 engine for c,
// under the scan chain ch.
func newPodem(c *circuit.Circuit, eng *sim.BatchEngine, f fault.Fault, limit int, ch *scan.Chain, tm *scoap.Measures) *podem {
	return newSearch(c, eng, limit, ch, tm).target(f)
}

// newSearch builds the fault-independent state of PODEM runs on eng, a
// width-1 engine for c, under the scan chain ch: only scanned
// present-state lines are assignable and only scanned next-state lines
// are observable.
func newSearch(c *circuit.Circuit, eng *sim.BatchEngine, limit int, ch *scan.Chain, tm *scoap.Measures) *podem {
	p := &podem{
		c:        c,
		eng:      eng,
		observed: make([]bool, c.NumNodes()),
		limit:    limit,
		tm:       tm,
		inpPos:   make([]int, c.NumNodes()),
		seen:     make([]uint32, c.NumNodes()),
	}
	p.inputs = append(p.inputs, c.PIs...)
	for _, k := range ch.FFs {
		p.inputs = append(p.inputs, c.DFFs[k])
	}
	for n := range p.inpPos {
		p.inpPos[n] = -1
	}
	for i, n := range p.inputs {
		p.inpPos[n] = i
	}
	p.assign = logic.NewVector(len(p.inputs), logic.X)
	for _, po := range c.POs {
		if !p.observed[po] {
			p.observed[po] = true
			p.obs = append(p.obs, po)
		}
	}
	for _, k := range ch.FFs {
		d := c.Nodes[c.DFFs[k]].Fanin[0]
		if !p.observed[d] {
			p.observed[d] = true
			p.obs = append(p.obs, d)
		}
	}
	return p
}

// target resets p for a run on f and returns p.
func (p *podem) target(f fault.Fault) *podem {
	c := p.c
	p.f = f
	p.backtracks = 0
	for i := range p.assign {
		p.assign[i] = logic.X
	}
	// Reset clears the last run's values: an output injection on an
	// unscanned flip-flop wrote slot 1 there, and no input write undoes it.
	p.eng.Reset()
	p.eng.SetInjections([]sim.BatchInjection{f.Injection([]uint64{1 << 1})}) // the faulty machine: slot 1
	// A fault on a flip-flop is caught at scan-out when the flip-flop
	// is scanned, that is, when its output is an assignable input.
	p.soDriver = -1
	if p.inpPos[f.Node] >= 0 && c.Nodes[f.Node].Kind == circuit.DFF {
		p.soDriver = c.Nodes[f.Node].Fanin[0]
	}
	// Only the fault site and its combinational fanouts can differ
	// between the machines, so the D-frontier lies in this cone.
	seen, visit := p.stamp()
	seen[f.Node] = visit
	stack := append(p.stack[:0], f.Node)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range c.Fanout(n) {
			if seen[s] != visit && c.Nodes[s].Kind != circuit.DFF {
				seen[s] = visit
				stack = append(stack, s)
			}
		}
	}
	p.stack = stack[:0]
	p.cone = p.cone[:0]
	for _, n := range c.EvalOrder() {
		if seen[n] == visit {
			p.cone = append(p.cone, n)
		}
	}
	return p
}

// stamp starts a new walk over p.seen and returns the buffer and the
// walk's stamp.
func (p *podem) stamp() ([]uint32, uint32) {
	p.visit++
	if p.visit == 0 { // wrapped: stamps of old walks could match
		clear(p.seen)
		p.visit = 1
	}
	return p.seen, p.visit
}

// imply re-simulates both machines under the current input assignment:
// one sweep evaluates the good and the faulty slot together.
func (p *podem) imply() {
	for i, n := range p.inputs {
		p.eng.SetNodeVec(n, logic.WordVec{logic.FromValue(p.assign[i])})
	}
	p.eng.EvalComb()
}

// word returns node n's engine word: bit 0 is the good machine, bit 1
// the faulty one.
func (p *podem) word(n int) logic.Word { return p.eng.Val(n)[0] }

func (p *podem) goodVal(n int) logic.Value { return p.word(n).Get(0) }

// bothBinary reports whether both machines carry a binary value in w.
func bothBinary(w logic.Word) bool { return (w.Zero|w.One)&0b11 == 0b11 }

// hasEffect reports whether w carries a definite fault effect: both
// machines binary, and different.
func hasEffect(w logic.Word) bool { return (w.Zero&(w.One>>1)|w.One&(w.Zero>>1))&1 != 0 }

// effect reports whether node n carries a definite fault effect.
func (p *podem) effect(n int) bool { return hasEffect(p.word(n)) }

// detected reports whether any observation node carries a fault effect.
// Faults on a flip-flop (output stem or D pin) get a scan-out check: the
// faulty machine captures the stuck value into the flip-flop, so the
// test detects the fault whenever the good D value is the complement —
// no combinational propagation path is required.
func (p *podem) detected() bool {
	for _, n := range p.obs {
		if p.effect(n) {
			return true
		}
	}
	if d, ok := p.dffDriver(); ok {
		g := p.goodVal(d)
		if g.IsBinary() && g != p.f.Stuck {
			return true
		}
	}
	return false
}

// dffDriver returns the D driver node when the fault sits on a flip-flop
// (output stem or D input pin) that is observable at scan-out.
func (p *podem) dffDriver() (int, bool) { return p.soDriver, p.soDriver >= 0 }

// scanoutAlive reports whether the flip-flop scan-out detection route is
// still open (D driver undetermined).
func (p *podem) scanoutAlive() bool {
	d, ok := p.dffDriver()
	return ok && !p.goodVal(d).IsBinary()
}

// excited reports whether the fault site carries the activating value.
// For a stem fault the site is the node output in the *faulty* machine's
// surroundings: we need the good value at the line to be ¬stuck. For a
// pin fault the relevant line is the driver as seen by that pin.
func (p *podem) excited() bool {
	n := p.siteNode()
	g := p.goodVal(n)
	return g.IsBinary() && g != p.f.Stuck
}

// siteNode returns the node whose good value must be set to ¬stuck to
// excite the fault.
func (p *podem) siteNode() int {
	if p.f.Pin < 0 {
		return p.f.Node
	}
	return p.c.Nodes[p.f.Node].Fanin[p.f.Pin]
}

// dFrontier returns gates whose output has no definite effect yet but at
// least one fanin does, and whose output is still X in one machine. Only
// gates of the fault's cone can have a fanin with an effect, so the scan
// covers the cone alone; the result is valid until the next call.
func (p *podem) dFrontier() []int {
	out := p.frontier[:0]
	for _, n := range p.cone {
		if bothBinary(p.word(n)) {
			continue // fully determined: either effect already or blocked
		}
		for _, fi := range p.c.Nodes[n].Fanin {
			if p.effect(fi) {
				out = append(out, n)
				break
			}
		}
	}
	// A pin fault can put the effect "inside" the consumer gate even
	// though the driver shows none: treat the faulted gate itself as
	// frontier material when its output is undetermined and the fault is
	// excited.
	if p.f.Pin >= 0 && !bothBinary(p.word(p.f.Node)) && p.excited() {
		out = append(out, p.f.Node)
	}
	p.frontier = out
	return out
}

// xPathExists reports whether a fault effect (or the excited site) can
// still reach an observation node through undetermined values.
func (p *podem) xPathExists(frontier []int) bool {
	if len(frontier) == 0 {
		return false
	}
	seen, visit := p.stamp()
	stack := append(p.stack[:0], frontier...)
	for _, n := range stack {
		seen[n] = visit
	}
	found := false
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.observed[n] {
			found = true
			break
		}
		for _, s := range p.c.Fanout(n) {
			if seen[s] == visit || p.c.Nodes[s].Kind == circuit.DFF {
				// The D pin itself is an observation node (the driver),
				// handled by the observed mark of the driver n above.
				continue
			}
			if w := p.word(s); bothBinary(w) && !hasEffect(w) {
				continue // blocked
			}
			seen[s] = visit
			stack = append(stack, s)
		}
	}
	p.stack = stack[:0]
	return found
}

// objective returns the next (node, value) goal: excite the fault, or
// propagate through the first D-frontier gate.
func (p *podem) objective(frontier []int) (int, logic.Value, bool) {
	if !p.excited() {
		site := p.siteNode()
		if !p.goodVal(site).IsBinary() {
			return site, p.f.Stuck.Not(), true
		}
		// Site stuck at the wrong value. A flip-flop fault can still be
		// caught at scan-out regardless of the present-state value.
		if d, ok := p.dffDriver(); ok && !p.goodVal(d).IsBinary() {
			return d, p.f.Stuck.Not(), true
		}
		return 0, logic.X, false
	}
	for _, g := range frontier {
		// Set an undetermined input of g to the non-controlling value.
		nd := &p.c.Nodes[g]
		nc, ok := nonControlling(nd.Kind)
		if !ok {
			// XOR-family: any undetermined input, either value works.
			nc = logic.One
		}
		for pin, fi := range nd.Fanin {
			if p.f.Pin >= 0 && p.f.Node == g && p.f.Pin == pin {
				continue // the faulted pin itself is forced, not free
			}
			if !bothBinary(p.word(fi)) {
				return fi, nc, true
			}
		}
	}
	// Flip-flop faults have the scan-out route: justify the D driver to
	// the complement of the stuck value.
	if d, ok := p.dffDriver(); ok && !p.goodVal(d).IsBinary() {
		return d, p.f.Stuck.Not(), true
	}
	return 0, logic.X, false
}

// nonControlling returns the value that does not determine the gate
// output (1 for AND/NAND, 0 for OR/NOR), ok=false for XOR/NOT/BUF.
func nonControlling(k circuit.Kind) (logic.Value, bool) {
	switch k {
	case circuit.And, circuit.Nand:
		return logic.One, true
	case circuit.Or, circuit.Nor:
		return logic.Zero, true
	}
	return logic.X, false
}

// backtrace walks an objective back to an unassigned input and the value
// to try there.
func (p *podem) backtrace(n int, v logic.Value) (int, logic.Value, bool) {
	for {
		if idx := p.inpPos[n]; idx >= 0 {
			if p.assign[idx] != logic.X {
				return 0, logic.X, false // already decided: cannot serve
			}
			return idx, v, true
		}
		nd := &p.c.Nodes[n]
		if len(nd.Fanin) == 0 {
			return 0, logic.X, false // constant: cannot be set
		}
		switch nd.Kind {
		case circuit.Not:
			n, v = nd.Fanin[0], v.Not()
		case circuit.Buf:
			n = nd.Fanin[0]
		case circuit.And, circuit.Nand, circuit.Or, circuit.Nor:
			inv := nd.Kind == circuit.Nand || nd.Kind == circuit.Nor
			want := v
			if inv {
				want = v.Not()
			}
			ctrl := logic.Zero // controlling value of AND family
			if nd.Kind == circuit.Or || nd.Kind == circuit.Nor {
				ctrl = logic.One
			}
			// Pick an X input. If we need the controlling-derived output
			// one X input suffices (take the SCOAP-easiest to control);
			// otherwise all inputs must go non-controlling (attack the
			// SCOAP-hardest requirement first).
			goal := ctrl
			if want != ctrl {
				goal = ctrl.Not()
			}
			picked := -1
			var bestCost int32
			for _, fi := range nd.Fanin {
				if p.goodVal(fi).IsBinary() {
					continue
				}
				if p.tm == nil {
					picked = fi
					break
				}
				cost := p.tm.CC(fi, goal == logic.One)
				better := picked < 0 ||
					(want == ctrl && cost < bestCost) || // easiest
					(want != ctrl && cost > bestCost) // hardest
				if better {
					picked, bestCost = fi, cost
				}
			}
			if picked < 0 {
				return 0, logic.X, false
			}
			n, v = picked, goal
		case circuit.Xor, circuit.Xnor:
			// Aim the first X input at a value consistent with the known
			// inputs; the exact value matters less than making progress.
			acc := logic.Zero
			picked := -1
			for _, fi := range nd.Fanin {
				fv := p.goodVal(fi)
				if !fv.IsBinary() {
					if picked < 0 {
						picked = fi
					}
					continue
				}
				acc = acc.Xor(fv)
			}
			if picked < 0 {
				return 0, logic.X, false
			}
			want := v
			if nd.Kind == circuit.Xnor {
				want = v.Not()
			}
			n, v = picked, want.Xor(acc)
		default:
			return 0, logic.X, false
		}
		if !v.IsBinary() {
			// Ambiguous goal (e.g. XOR with X accumulator): default to 1.
			v = logic.One
		}
	}
}

// decision is one PODEM stack frame.
type decision struct {
	input   int
	value   logic.Value
	flipped bool
}

// run executes the PODEM search. On success the returned vector holds
// the PI+state assignment (X where unassigned).
func (p *podem) run() (logic.Vector, Status) {
	var stack []decision
	p.imply()
	for {
		if p.detected() {
			return p.assign.Clone(), Detected
		}
		frontier := p.dFrontier()
		// A flip-flop fault's scan-out route stays alive while its D
		// driver is undetermined, even with an empty D-frontier.
		deadEnd := false
		if p.excited() && !p.xPathExists(frontier) && !p.scanoutAlive() {
			deadEnd = true
		}
		var idx int
		var val logic.Value
		if !deadEnd {
			n, v, ok := p.objective(frontier)
			if ok {
				idx, val, ok = p.backtrace(n, v)
			}
			if !ok {
				deadEnd = true
			}
		}
		if deadEnd {
			// Backtrack: flip the most recent unflipped decision.
			for {
				if len(stack) == 0 {
					return nil, Untestable
				}
				top := &stack[len(stack)-1]
				if !top.flipped {
					top.flipped = true
					top.value = top.value.Not()
					p.assign[top.input] = top.value
					p.backtracks++
					if p.backtracks > p.limit {
						return nil, Aborted
					}
					break
				}
				p.assign[top.input] = logic.X
				stack = stack[:len(stack)-1]
			}
			p.imply()
			continue
		}
		stack = append(stack, decision{input: idx, value: val})
		p.assign[idx] = val
		p.imply()
	}
}
