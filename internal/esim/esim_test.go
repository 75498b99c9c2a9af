package esim

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/sim"
)

func randVec(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(2))
	}
	return v
}

// kernelRun simulates seq from init (nil = all X) on the compiled
// kernel at width 1 and returns slot 0's PO vector in each cycle and
// its flip-flop state after each clock.
func kernelRun(c *circuit.Circuit, init logic.Vector, seq logic.Sequence) (pos, states []logic.Vector) {
	k := sim.NewBatch(sim.Compile(c), 1)
	k.SetStateVector(init)
	for _, v := range seq {
		k.SetPIVector(v)
		k.EvalComb()
		po := make(logic.Vector, c.NumPOs())
		for i := range po {
			po[i] = k.PO(i)[0].Get(0)
		}
		k.ClockFF()
		st := make(logic.Vector, c.NumFFs())
		for i := range st {
			st[i] = k.State(i)[0].Get(0)
		}
		pos, states = append(pos, po), append(states, st)
	}
	return pos, states
}

// TestMatchesLevelizedEngine is the package's core guarantee: the
// event-driven engine and the compiled kernel implement the same
// semantics. Random sequential runs on random circuits must agree on
// every PO at every cycle and on every flip-flop state.
func TestMatchesLevelizedEngine(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 4; trial++ {
		c := gen.MustGenerate(gen.Params{
			Name: "x", Seed: int64(trial + 1),
			PIs: 4 + trial, POs: 3, FFs: 6 + trial, Gates: 60 + 20*trial,
		})
		seq := make(logic.Sequence, 25)
		for i := range seq {
			seq[i] = randVec(r, c.NumPIs())
		}
		init := randVec(r, c.NumFFs())

		pos, states := kernelRun(c, init, seq)
		e := New(c)
		e.SetStateVector(init)
		for u, v := range seq {
			got := e.Step(v)
			if !got.Equal(pos[u]) {
				t.Fatalf("trial %d cycle %d: POs %s vs %s", trial, u, got, pos[u])
			}
			for i := 0; i < c.NumFFs(); i++ {
				if e.Val(c.DFFs[i]) != states[u][i] {
					t.Fatalf("trial %d cycle %d: FF %d state %v vs %v",
						trial, u, i, e.Val(c.DFFs[i]), states[u][i])
				}
			}
		}
	}
}

func TestMatchesLevelizedWithXInputs(t *testing.T) {
	// Three-valued agreement: start from all-X and drive partial vectors.
	c := samples.S27()
	r := rand.New(rand.NewSource(23))
	seq := make(logic.Sequence, 15)
	for i := range seq {
		v := randVec(r, c.NumPIs())
		v[r.Intn(len(v))] = logic.X
		seq[i] = v
	}
	pos, _ := kernelRun(c, nil, seq)
	e := New(c)
	for u, v := range seq {
		got := e.Step(v)
		if !got.Equal(pos[u]) {
			t.Fatalf("cycle %d: POs %s vs %s", u, got, pos[u])
		}
	}
}

func TestEventCountsLowActivity(t *testing.T) {
	// Holding the inputs constant must cost (almost) no gate
	// evaluations after the first settle.
	c := gen.MustGenerate(gen.Params{Name: "x", Seed: 5, PIs: 6, POs: 4, FFs: 8, Gates: 200})
	e := New(c)
	e.SetStateVector(logic.NewVector(c.NumFFs(), logic.Zero))
	v := logic.NewVector(c.NumPIs(), logic.One)
	e.Step(v)
	first := e.GatesEvaluated()
	if first == 0 {
		t.Fatal("first settle evaluated nothing")
	}
	// Drive to a fixpoint: repeat until the state stops changing, then
	// measure one more repeat cycle.
	for i := 0; i < 20; i++ {
		e.Step(v)
	}
	e.ResetStats()
	e.Step(v)
	steady := e.GatesEvaluated()
	if steady >= first {
		t.Errorf("steady-state evaluations %d not below first settle %d", steady, first)
	}
	t.Logf("first settle %d evals, steady cycle %d evals (%d gates)", first, steady, c.NumGates())
}

func TestSingleBitFlipTouchesCone(t *testing.T) {
	// One input flip should evaluate at most the fanout cone, not the
	// whole circuit.
	c := gen.MustGenerate(gen.Params{Name: "x", Seed: 6, PIs: 8, POs: 4, FFs: 8, Gates: 300})
	e := New(c)
	e.SetStateVector(logic.NewVector(c.NumFFs(), logic.Zero))
	v := logic.NewVector(c.NumPIs(), logic.Zero)
	e.SetPIVector(v)
	e.Settle()
	for i := 0; i < 10; i++ { // settle the sequential state too
		e.Step(v)
	}
	e.ResetStats()
	v2 := v.Clone()
	v2[0] = logic.One
	e.SetPIVector(v2)
	e.Settle()
	if e.GatesEvaluated() >= c.NumGates() {
		t.Errorf("single flip evaluated %d of %d gates", e.GatesEvaluated(), c.NumGates())
	}
}

func TestConstantsSettled(t *testing.T) {
	cb := samples.Comb4()
	e := New(cb)
	e.SetPIVector(logic.Vector{logic.One, logic.Zero, logic.Zero, logic.Zero})
	e.Settle()
	if e.PO(0) != logic.One {
		t.Errorf("mux PO = %v, want 1", e.PO(0))
	}

	// A gate read only from constants, and one whose other input never
	// changes, settle without any input event.
	b := circuit.NewBuilder("k")
	b.Input("a")
	b.Const("zero", false)
	b.Const("one", true)
	b.Gate("n", circuit.Not, "zero")
	b.Gate("y", circuit.Or, "a", "one")
	b.Output("n")
	b.Output("y")
	e = New(b.MustBuild())
	e.Settle()
	if got := e.POVector(); got.String() != "11" {
		t.Errorf("constant-driven POs = %s, want 11", got)
	}
}

func TestStatsAccessors(t *testing.T) {
	c := samples.Toggle()
	e := New(c)
	if e.Circuit() != c {
		t.Error("Circuit accessor wrong")
	}
	e.Step(logic.Vector{logic.One})
	if e.GatesEvaluated() == 0 {
		t.Error("no evaluations counted")
	}
	e.ResetStats()
	if e.GatesEvaluated() != 0 {
		t.Error("ResetStats failed")
	}
}

// TestInjectedFaultMatchesWordEngine checks fault-injection semantics
// against the compiled kernel: for every collapsed fault of several
// random circuits, an event-driven engine carrying that single fault
// must agree with the injected slot of a width-1 kernel engine on every
// PO and every flip-flop, cycle by cycle. This is the guarantee the
// reference fault simulator in internal/oracle builds on.
func TestInjectedFaultMatchesWordEngine(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3; trial++ {
		c := gen.MustGenerate(gen.Params{
			Name: "inj", Seed: int64(50 + trial),
			PIs: 3 + trial, POs: 3, FFs: 4 + trial, Gates: 40 + 15*trial,
		})
		faults := fault.Collapse(c)
		seq := make(logic.Sequence, 8)
		for i := range seq {
			seq[i] = randVec(r, c.NumPIs())
			if i%3 == 0 {
				seq[i][r.Intn(len(seq[i]))] = logic.X
			}
		}
		init := randVec(r, c.NumFFs())

		ref := sim.NewBatch(sim.Compile(c), 1)
		for fi, fl := range faults {
			// Kernel: fault in slot 1, good machine in slot 0.
			ref.Reset()
			ref.SetInjections([]sim.BatchInjection{fl.Injection([]uint64{1 << 1})})
			ref.SetStateVector(init)

			e := New(c)
			e.InjectFault(fl.Node, fl.Pin, fl.Stuck)
			e.SetStateVector(init)

			for u, v := range seq {
				ref.SetPIVector(v)
				ref.EvalComb()
				e.SetPIVector(v)
				e.Settle()
				for i := range c.POs {
					want := ref.PO(i)[0].Get(1)
					if got := e.PO(i); got != want {
						t.Fatalf("trial %d fault %d (%s) cycle %d PO %d: esim %v, sim %v",
							trial, fi, fl.String(c), u, i, got, want)
					}
				}
				ref.ClockFF()
				e.ClockFF()
				for i := 0; i < c.NumFFs(); i++ {
					want := ref.State(i)[0].Get(1)
					if got := e.Val(c.DFFs[i]); got != want {
						t.Fatalf("trial %d fault %d (%s) cycle %d FF %d: esim %v, sim %v",
							trial, fi, fl.String(c), u, i, got, want)
					}
				}
			}
		}
	}
}

// TestInjectFaultImmediateEffect pins the injection-time semantics: an
// output fault forces its line before any stimulus, and a pin fault
// re-evaluates its gate even when no event ever reaches it.
func TestInjectFaultImmediateEffect(t *testing.T) {
	c := samples.Comb4()
	y, _ := c.NodeByName("y")

	e := New(c)
	e.InjectFault(y, -1, logic.One)
	e.Settle()
	if e.Val(y) != logic.One {
		t.Errorf("stuck output not forced before stimulus: %v", e.Val(y))
	}

	// Pin fault on the XOR's y input: with c=0 the PO p follows the
	// stuck value even though no input event ever fires.
	p, _ := c.NodeByName("p")
	e2 := New(c)
	e2.InjectFault(p, 0, logic.One)
	e2.SetPIVector(logic.Vector{logic.Zero, logic.Zero, logic.Zero, logic.Zero})
	e2.Settle()
	if e2.PO(1) != logic.One {
		t.Errorf("pin fault not applied: PO p = %v, want 1", e2.PO(1))
	}
}
