package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/logic"
	"repro/internal/samples"
)

// The simulation semantics, pinned on a width-1 kernel engine: truth
// tables, X propagation, clocked runs, injections and constants. Slot 0
// is the machine under test; an injection masked onto another slot
// leaves it clean.

func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

// scalarEngine returns a width-1 engine for c.
func scalarEngine(c *circuit.Circuit) *BatchEngine { return NewBatch(Compile(c), 1) }

// slotVal returns the value node n carries in slot s of a width-1
// engine.
func slotVal(e *BatchEngine, n int, s uint) logic.Value { return e.Val(n)[0].Get(s) }

// poVector returns slot 0's primary outputs.
func poVector(e *BatchEngine) logic.Vector {
	c := e.Circuit()
	po := make(logic.Vector, c.NumPOs())
	for i := range po {
		po[i] = e.PO(i)[0].Get(0)
	}
	return po
}

// stateVector returns slot 0's flip-flop state.
func stateVector(e *BatchEngine) logic.Vector {
	c := e.Circuit()
	st := make(logic.Vector, c.NumFFs())
	for i := range st {
		st[i] = e.State(i)[0].Get(0)
	}
	return st
}

// evalScalar evaluates the combinational logic once for a (PI, state)
// pair and returns slot 0's PO vector and next-state vector: the
// combinational view of the circuit, with present-state lines as
// inputs and next-state lines as outputs.
func evalScalar(c *circuit.Circuit, pi, state logic.Vector) (po, next logic.Vector) {
	e := scalarEngine(c)
	e.SetPIVector(pi)
	e.SetStateVector(state)
	e.EvalComb()
	ns := make([]logic.Word, c.NumFFs())
	e.NextState(ns)
	next = make(logic.Vector, c.NumFFs())
	for i, w := range ns {
		next[i] = w.Get(0)
	}
	return poVector(e), next
}

// runScalar simulates seq from init (nil = all X, the power-up state of
// a non-scan run) and returns slot 0's PO vector while each vector is
// applied and its flip-flop state after each clock.
func runScalar(c *circuit.Circuit, init logic.Vector, seq logic.Sequence) (pos, states []logic.Vector) {
	e := scalarEngine(c)
	e.SetStateVector(init)
	for _, v := range seq {
		e.SetPIVector(v)
		e.EvalComb()
		pos = append(pos, poVector(e))
		e.ClockFF()
		states = append(states, stateVector(e))
	}
	return pos, states
}

func TestComb4MuxTruth(t *testing.T) {
	c := samples.Comb4()
	// PIs: a, b, sel, c ; POs: y = sel ? b : a, p = y XOR c.
	cases := []struct{ in, want string }{
		{"1000", "11"}, // a=1 sel=0 -> y=1, p=1^0=1
		{"1001", "10"},
		{"0110", "11"}, // sel=1 -> y=b=1
		{"0100", "00"},
		{"1010", "00"}, // sel=1 -> y=b=0
		{"0000", "00"},
		{"1111", "10"},
	}
	for _, tc := range cases {
		po, _ := evalScalar(c, vec(tc.in), nil)
		if po.String() != tc.want {
			t.Errorf("in %s: po = %s, want %s", tc.in, po, tc.want)
		}
	}
}

func TestComb4XPropagation(t *testing.T) {
	c := samples.Comb4()
	// sel=X with a=b=1: both mux legs could drive 1... our pessimistic
	// 3-valued sim reports X for y (no dominance through OR of two X
	// ANDs). Verify X stays X and doesn't become a definite wrong value.
	po, _ := evalScalar(c, vec("11x0"), nil)
	if po[0] != logic.X {
		t.Errorf("y with sel=X = %v, want X (pessimistic 3-valued)", po[0])
	}
	// a=b=0 forces y=0 regardless of sel: both AND legs are 0.
	po, _ = evalScalar(c, vec("00x0"), nil)
	if po[0] != logic.Zero {
		t.Errorf("y with a=b=0, sel=X = %v, want 0", po[0])
	}
}

func TestToggleSequence(t *testing.T) {
	c := samples.Toggle()
	// Start from q=0; enable pattern 1,1,0,1 -> q after each clock: 1,0,0,1.
	pos, states := runScalar(c, vec("0"), logic.Sequence{vec("1"), vec("1"), vec("0"), vec("1")})
	wantStates := []string{"1", "0", "0", "1"}
	for u, w := range wantStates {
		if states[u].String() != w {
			t.Errorf("state after clock %d = %s, want %s", u, states[u], w)
		}
	}
	// Output shows q before the clock: 0,1,0,0.
	wantPOs := []string{"0", "1", "0", "0"}
	for u, w := range wantPOs {
		if pos[u].String() != w {
			t.Errorf("PO at time %d = %s, want %s", u, pos[u], w)
		}
	}
}

func TestToggleUnknownStart(t *testing.T) {
	c := samples.Toggle()
	_, states := runScalar(c, nil, logic.Sequence{vec("1"), vec("1")})
	// q starts X; q XOR 1 = X forever.
	if states[1][0] != logic.X {
		t.Errorf("state = %v, want X", states[1][0])
	}
	if pos, states := runScalar(c, nil, nil); len(pos) != 0 || len(states) != 0 {
		t.Error("an empty run must observe nothing")
	}
}

func TestShiftRegPropagation(t *testing.T) {
	c := samples.ShiftReg(4)
	seq := logic.Sequence{vec("1"), vec("0"), vec("0"), vec("0"), vec("0")}
	_, states := runScalar(c, vec("0000"), seq)
	// The 1 enters q0 after clock 0 and marches to q3.
	wantStates := []string{"1000", "0100", "0010", "0001", "0000"}
	for u, w := range wantStates {
		if states[u].String() != w {
			t.Errorf("state after clock %d = %s, want %s", u, states[u], w)
		}
	}
}

// TestParallelPatternsMatchScalar loads 64 random (state, input) pairs,
// one per slot, and checks the one parallel evaluation against 64
// scalar runs of the event-driven reference.
func TestParallelPatternsMatchScalar(t *testing.T) {
	c := samples.S27()
	r := rand.New(rand.NewSource(7))
	pis := make([]logic.Vector, 64)
	states := make([]logic.Vector, 64)
	for s := 0; s < 64; s++ {
		pis[s] = randomVector(r, c.NumPIs())
		states[s] = randomVector(r, c.NumFFs())
	}
	e := scalarEngine(c)
	load := func(n int, slot func(s int) logic.Value) {
		var w logic.Word
		for s := 0; s < 64; s++ {
			w = w.Set(uint(s), slot(s))
		}
		e.SetNodeVec(n, logic.WordVec{w})
	}
	for i, pi := range c.PIs {
		load(pi, func(s int) logic.Value { return pis[s][i] })
	}
	for i, ff := range c.DFFs {
		load(ff, func(s int) logic.Value { return states[s][i] })
	}
	e.EvalComb()
	ns := make([]logic.Word, c.NumFFs())
	e.NextState(ns)
	for s := 0; s < 64; s++ {
		ref := esim.New(c)
		ref.SetStateVector(states[s])
		ref.SetPIVector(pis[s])
		ref.Settle()
		for i := range c.POs {
			if got, want := e.PO(i)[0].Get(uint(s)), ref.PO(i); got != want {
				t.Fatalf("slot %d PO %d: parallel %v, scalar %v", s, i, got, want)
			}
		}
		for i, ff := range c.DFFs {
			if got, want := ns[i].Get(uint(s)), ref.Val(c.Nodes[ff].Fanin[0]); got != want {
				t.Fatalf("slot %d FF %d: parallel %v, scalar %v", s, i, got, want)
			}
		}
	}
}

func randomVector(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		if r.Intn(2) == 0 {
			v[i] = logic.Zero
		} else {
			v[i] = logic.One
		}
	}
	return v
}

func TestOutputInjectionOnGate(t *testing.T) {
	c := samples.Comb4()
	yi, _ := c.NodeByName("y")
	e := scalarEngine(c)
	e.SetInjections([]BatchInjection{{Node: yi, Pin: -1, Stuck: logic.One, Mask: []uint64{1 << 1}}})
	// Slot 0 clean, slot 1 faulty. Input drives y=0.
	e.SetPIVector(vec("0000"))
	e.EvalComb()
	if slotVal(e, c.POs[0], 0) != logic.Zero {
		t.Error("good slot should see y=0")
	}
	if slotVal(e, c.POs[0], 1) != logic.One {
		t.Error("faulty slot should see y stuck at 1")
	}
	// p = y XOR c must also differ downstream.
	if slotVal(e, c.POs[1], 0) != logic.Zero || slotVal(e, c.POs[1], 1) != logic.One {
		t.Error("fault effect did not propagate downstream of injection")
	}
}

func TestPinInjectionAffectsOnlyOneBranch(t *testing.T) {
	// y = AND(a, a2) where a2 = BUF(a): force the pin fault only on the
	// AND's first pin; the BUF branch must stay clean.
	b := circuit.NewBuilder("branch")
	b.Input("a")
	b.Output("y")
	b.Output("w")
	b.Gate("a2", circuit.Buf, "a")
	b.Gate("y", circuit.And, "a", "a2")
	b.Gate("w", circuit.Buf, "a")
	c := b.MustBuild()
	yi, _ := c.NodeByName("y")
	e := scalarEngine(c)
	e.SetInjections([]BatchInjection{{Node: yi, Pin: 0, Stuck: logic.Zero, Mask: []uint64{^uint64(0)}}})
	e.SetPIVector(vec("1"))
	e.EvalComb()
	if slotVal(e, c.POs[0], 0) != logic.Zero {
		t.Error("AND should see stuck-0 pin and output 0")
	}
	if slotVal(e, c.POs[1], 0) != logic.One {
		t.Error("other branch of the stem must not see the pin fault")
	}
}

func TestInjectionOnPIAndDFF(t *testing.T) {
	c := samples.Toggle()
	eni, _ := c.NodeByName("en")
	qi, _ := c.NodeByName("q")

	// PI stuck-at-0: toggle never fires.
	e := scalarEngine(c)
	e.SetInjections([]BatchInjection{{Node: eni, Pin: -1, Stuck: logic.Zero, Mask: []uint64{^uint64(0)}}})
	e.SetStateVector(vec("0"))
	e.SetPIVector(vec("1"))
	e.Step()
	if slotVal(e, qi, 0) != logic.Zero {
		t.Error("with en stuck-0 the FF must hold 0")
	}

	// DFF output stuck-at-1: state forced after every clock.
	e2 := scalarEngine(c)
	e2.SetInjections([]BatchInjection{{Node: qi, Pin: -1, Stuck: logic.One, Mask: []uint64{^uint64(0)}}})
	e2.SetStateVector(vec("1"))
	e2.SetPIVector(vec("1")) // toggling from 1 would give 0, but stuck keeps 1
	e2.EvalComb()
	e2.ClockFF()
	if slotVal(e2, qi, 0) != logic.One {
		t.Error("stuck flip-flop output must remain 1 after clock")
	}
}

func TestInjectionMaskLimitsSlots(t *testing.T) {
	c := samples.Comb4()
	ai, _ := c.NodeByName("a")
	e := scalarEngine(c)
	e.SetInjections([]BatchInjection{{Node: ai, Pin: -1, Stuck: logic.One, Mask: []uint64{1 << 5}}})
	e.SetPIVector(vec("0000")) // broadcast zeros to all slots
	e.EvalComb()
	for s := uint(0); s < 8; s++ {
		want := logic.Zero
		if s == 5 {
			want = logic.One
		}
		if got := slotVal(e, c.POs[0], s); got != want {
			t.Errorf("slot %d: y = %v, want %v", s, got, want)
		}
	}
}

func TestResetClearsStateAndInjections(t *testing.T) {
	c := samples.Toggle()
	qi, _ := c.NodeByName("q")
	e := scalarEngine(c)
	e.SetInjections([]BatchInjection{{Node: qi, Pin: -1, Stuck: logic.One, Mask: []uint64{^uint64(0)}}})
	e.SetStateVector(vec("0"))
	e.Reset()
	if e.State(0)[0] != logic.AllX {
		t.Error("Reset should clear state to X")
	}
	e.SetStateVector(vec("0"))
	e.SetPIVector(vec("0"))
	e.Step()
	if slotVal(e, qi, 0) != logic.Zero {
		t.Error("Reset should drop injections")
	}
}

// TestStateWordsRoundTrip saves flip-flop words with State and restores
// them into another engine with SetNodeVec, as seqgen saves and reloads
// its groups' machine states.
func TestStateWordsRoundTrip(t *testing.T) {
	c := samples.ShiftReg(3)
	p := Compile(c)
	for _, w := range []int{1, WideWidth} {
		e := NewBatch(p, w)
		e.SetStateVector(vec("101"))
		// Per-slot words survive too.
		words := make(logic.WordVec, w)
		for j := range words {
			words[j] = logic.Word{Zero: 0xf0 << (8 * j), One: 0x0f << (8 * j)}
		}
		e.SetNodeVec(c.DFFs[1], words)
		saved := make([]logic.WordVec, c.NumFFs())
		for i := range saved {
			saved[i] = e.State(i).Clone()
		}
		e2 := NewBatch(p, w)
		for i, ff := range c.DFFs {
			e2.SetNodeVec(ff, saved[i])
		}
		for i := 0; i < c.NumFFs(); i++ {
			if !e2.State(i).Equal(e.State(i)) {
				t.Errorf("width %d: FF %d state mismatch after word round trip", w, i)
			}
		}
	}
}

func TestConstantsEvaluate(t *testing.T) {
	b := circuit.NewBuilder("k")
	b.Const("z", false)
	b.Const("o", true)
	b.Gate("y", circuit.Or, "z", "o")
	b.Output("y")
	c := b.MustBuild()
	po, _ := evalScalar(c, nil, nil)
	if po[0] != logic.One {
		t.Errorf("OR(0,1) = %v, want 1", po[0])
	}
}

func TestWideGates(t *testing.T) {
	b := circuit.NewBuilder("wide")
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		b.Input(n)
	}
	b.Gate("and5", circuit.And, "a", "b", "c", "d", "e")
	b.Gate("nor5", circuit.Nor, "a", "b", "c", "d", "e")
	b.Gate("xor5", circuit.Xor, "a", "b", "c", "d", "e")
	b.Output("and5")
	b.Output("nor5")
	b.Output("xor5")
	c := b.MustBuild()
	po, _ := evalScalar(c, vec("11111"), nil)
	if po.String() != "101" {
		t.Errorf("all-ones: %s, want 101", po)
	}
	po, _ = evalScalar(c, vec("00000"), nil)
	if po.String() != "010" {
		t.Errorf("all-zeros: %s, want 010", po)
	}
	po, _ = evalScalar(c, vec("10101"), nil)
	if po.String() != "001" {
		t.Errorf("10101: %s, want 001", po)
	}
}

func TestS27KnownGoodVectors(t *testing.T) {
	// Pin down one hand-derived s27 cycle.
	c := samples.S27()
	po, ns := evalScalar(c, vec("0000"), vec("000"))
	// With all PIs 0 and state 000: G14=NOT(0)=1, G8=AND(1,0)=0,
	// G12=NOR(0,0)=1, G13=NOR(0,1)=0, G15=OR(1,0)=1, G16=OR(0,0)=0,
	// G9=NAND(0,1)=1, G11=NOR(0,1)=0, G10=NOR(1,0)=0, G17=NOT(0)=1.
	if po[0] != logic.One {
		t.Errorf("s27 PO = %v, want 1", po[0])
	}
	if ns.String() != "000" { // G10=0, G11=0, G13=0
		t.Errorf("next state = %s, want 000", ns)
	}
}

// TestAccessorsAndSetPI drives the PIs word by word through SetNodeVec,
// the way PODEM writes its input assignment.
func TestAccessorsAndSetPI(t *testing.T) {
	c := samples.Comb4()
	e := scalarEngine(c)
	if e.Circuit() != c || e.Program().Circuit() != c {
		t.Error("Circuit accessor wrong")
	}
	for i, w := range []logic.Word{logic.AllOne, logic.AllZero, logic.AllZero, logic.AllZero} {
		e.SetNodeVec(c.PIs[i], logic.WordVec{w})
	}
	e.EvalComb()
	if slotVal(e, c.POs[0], 0) != logic.One {
		t.Error("SetNodeVec path broken")
	}
	yi, _ := c.NodeByName("y")
	if slotVal(e, yi, 0) != logic.One {
		t.Error("Val accessor broken")
	}
	ai, _ := c.NodeByName("a")
	e.SetNodeVec(ai, logic.WordVec{logic.AllZero})
	e.EvalComb()
	if slotVal(e, c.POs[0], 0) != logic.Zero {
		t.Error("SetNodeVec on a PI did not take effect")
	}
}

func TestEvalGateWithPinInjectionsAllKinds(t *testing.T) {
	// Exercise the pin-injection patch for every gate kind, cross-checked
	// against an uninjected evaluation on the clean slot.
	kinds := []circuit.Kind{circuit.And, circuit.Nand, circuit.Or, circuit.Nor,
		circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for _, k := range kinds {
		b := circuit.NewBuilder("k")
		b.Input("a")
		b.Input("bb")
		if k == circuit.Not || k == circuit.Buf {
			b.Gate("y", k, "a")
		} else {
			b.Gate("y", k, "a", "bb")
		}
		b.Output("y")
		c := b.MustBuild()
		yi, _ := c.NodeByName("y")
		e := scalarEngine(c)
		// Slot 1 gets pin 0 stuck at 1; slot 0 stays clean.
		e.SetInjections([]BatchInjection{{Node: yi, Pin: 0, Stuck: logic.One, Mask: []uint64{1 << 1}}})
		e.SetPIVector(vec("00")[:c.NumPIs()])
		e.EvalComb()
		clean, _ := evalScalar(c, vec("00")[:c.NumPIs()], nil)
		if slotVal(e, yi, 0) != clean[0] {
			t.Errorf("%v: clean slot diverged under injection", k)
		}
		// Slot 1 must equal evaluating with a=1.
		forced, _ := evalScalar(c, vec("10")[:c.NumPIs()], nil)
		if slotVal(e, yi, 1) != forced[0] {
			t.Errorf("%v: injected slot = %v, want %v", k, slotVal(e, yi, 1), forced[0])
		}
	}
}
