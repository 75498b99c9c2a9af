package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/samples"
)

// wideConstCircuit exercises compiler paths the generator never emits:
// constants, wide (fanin 3-5) gates of every kind, degenerate one-input
// gates, and a DFF loop through all of it.
func wideConstCircuit(t testing.TB) *circuit.Circuit {
	b := circuit.NewBuilder("wide")
	for i := 0; i < 5; i++ {
		b.Input(fmt.Sprintf("i%d", i))
	}
	b.Const("c0", false)
	b.Const("c1", true)
	b.Gate("a3", circuit.And, "i0", "i1", "i2")
	b.Gate("o4", circuit.Or, "i1", "i2", "i3", "i4")
	b.Gate("na5", circuit.Nand, "i0", "i1", "i2", "i3", "i4")
	b.Gate("no3", circuit.Nor, "a3", "o4", "c0")
	b.Gate("x4", circuit.Xor, "i0", "na5", "c1", "q0")
	b.Gate("xn3", circuit.Xnor, "x4", "no3", "i2")
	b.Gate("and1", circuit.And, "xn3")
	b.Gate("nand1", circuit.Nand, "xn3")
	b.Gate("xor1", circuit.Xor, "a3")
	b.Gate("n1", circuit.Not, "o4")
	b.Gate("b1", circuit.Buf, "na5")
	b.Gate("d0", circuit.Or, "and1", "nand1", "xor1", "n1", "b1")
	b.DFF("q0", "d0")
	b.Output("xn3")
	b.Output("x4")
	b.Output("d0")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func kernelTestCircuits(t testing.TB) []*circuit.Circuit {
	return []*circuit.Circuit{
		samples.S27(),
		samples.Comb4(),
		samples.ShiftReg(9),
		wideConstCircuit(t),
		gen.MustGenerate(gen.Params{Name: "k1", Seed: 7, PIs: 6, POs: 4, FFs: 12, Gates: 160, MaxFanin: 6}),
		gen.MustGenerate(gen.Params{Name: "k2", Seed: 8, PIs: 4, POs: 3, FFs: 8, Gates: 90, XorWeight: 0.4}),
	}
}

// randInjections builds a random injection set over the batch: stems,
// gate input pins, DFF D-pins and stuck FF outputs, each over a random
// multi-word slot mask.
func randInjections(r *rand.Rand, c *circuit.Circuit, w, n int) []BatchInjection {
	injs := make([]BatchInjection, 0, n)
	for len(injs) < n {
		node := r.Intn(c.NumNodes())
		kind := c.Nodes[node].Kind
		if kind == circuit.Const0 || kind == circuit.Const1 {
			continue
		}
		pin := -1
		if len(c.Nodes[node].Fanin) > 0 && r.Intn(2) == 0 {
			pin = r.Intn(len(c.Nodes[node].Fanin))
		}
		mask := make([]uint64, w)
		for j := range mask {
			mask[j] = r.Uint64() & r.Uint64() // sparse-ish
		}
		injs = append(injs, BatchInjection{
			Node:  node,
			Pin:   pin,
			Stuck: logic.Value(r.Intn(2)),
			Mask:  mask,
		})
	}
	return injs
}

func randXVector(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		switch r.Intn(5) {
		case 0:
			v[i] = logic.X
		case 1, 2:
			v[i] = logic.Zero
		default:
			v[i] = logic.One
		}
	}
	return v
}

// engineForWord builds an interpreter Engine carrying word j of the
// batch: the same injections restricted to that word's mask.
func engineForWord(c *circuit.Circuit, injs []BatchInjection, j int) *Engine {
	e := New(c)
	var word []Injection
	for _, in := range injs {
		if j < len(in.Mask) && in.Mask[j] != 0 {
			word = append(word, Injection{Node: in.Node, Pin: in.Pin, Stuck: in.Stuck, Mask: in.Mask[j]})
		}
	}
	e.SetInjections(word)
	return e
}

// compareAll checks every node's batch word j against the reference
// engine's word.
func compareAll(t *testing.T, c *circuit.Circuit, be *BatchEngine, eng *Engine, j int, tag string) {
	t.Helper()
	for n := 0; n < c.NumNodes(); n++ {
		got := be.Val(n)[j]
		want := eng.Val(n)
		if got != want {
			t.Fatalf("%s: node %d (%s) word %d: kernel %+v, engine %+v",
				tag, n, c.Nodes[n].Name, j, got, want)
		}
	}
}

// TestKernelMatchesEngine is the node-exact differential: for every
// circuit, width and random (injections, X-bearing sequence), each word
// of the BatchEngine must equal an interpreter Engine run carrying that
// word's injections — after every combinational evaluation, in the
// NextState values, and after every clock.
func TestKernelMatchesEngine(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		p := Compile(c)
		for _, w := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/w%d", c.Name, w), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(41*w) + int64(c.NumNodes())))
				be := NewBatch(p, w)
				next := make([]logic.Word, c.NumFFs()*w)
				for trial := 0; trial < 4; trial++ {
					be.Reset()
					injs := randInjections(r, c, w, 1+r.Intn(2*w))
					be.SetInjections(injs)
					engines := make([]*Engine, w)
					for j := range engines {
						engines[j] = engineForWord(c, injs, j)
					}
					st := randXVector(r, c.NumFFs())
					be.SetStateVector(st)
					for _, eng := range engines {
						eng.SetStateVector(st)
					}
					for u := 0; u < 6; u++ {
						in := randXVector(r, c.NumPIs())
						be.SetPIVector(in)
						be.EvalComb()
						be.NextState(next)
						for j, eng := range engines {
							eng.SetPIVector(in)
							eng.EvalComb()
							compareAll(t, c, be, eng, j, fmt.Sprintf("trial %d u %d eval", trial, u))
							for i, want := range eng.NextState() {
								if got := next[i*w+j]; got != want {
									t.Fatalf("trial %d u %d: flip-flop %d next state word %d: kernel %+v, engine %+v",
										trial, u, i, j, got, want)
								}
							}
						}
						be.ClockFF()
						for j, eng := range engines {
							eng.ClockFF()
							compareAll(t, c, be, eng, j, fmt.Sprintf("trial %d u %d clock", trial, u))
						}
					}
				}
			})
		}
	}
}

// fanoutCone returns the gates in the transitive fanout of node n, in
// level order. Flip-flop D inputs end a path: they are sequential edges.
func fanoutCone(c *circuit.Circuit, n int) []int {
	seen := map[int]bool{}
	var cone []int
	var walk func(int)
	walk = func(n int) {
		for _, m := range c.Fanout(n) {
			if !c.IsSource(m) && !seen[m] {
				seen[m] = true
				cone = append(cone, m)
				walk(m)
			}
		}
	}
	walk(n)
	sort.Slice(cone, func(i, j int) bool { return c.Level(cone[i]) < c.Level(cone[j]) })
	return cone
}

// TestKernelEvalNode checks event-driven re-evaluation against a full
// sweep: after EvalComb, one source's words change, and EvalNode on the
// source and then on its fanout cone in level order must leave the
// arena equal, node for node and word for word, to a fresh EvalComb
// from the changed source. Every other trial also forces the changed
// source's output, so EvalNode on an injected source must apply the
// injection as EvalComb does before the stream.
func TestKernelEvalNode(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		p := Compile(c)
		sources := append(append([]int(nil), c.PIs...), c.DFFs...)
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", c.Name, w), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(97*w) + int64(c.NumNodes())))
				be, ref := NewBatch(p, w), NewBatch(p, w)
				for trial := 0; trial < 16; trial++ {
					src := sources[r.Intn(len(sources))]
					injs := randInjections(r, c, w, 1+r.Intn(2*w))
					if trial%2 == 1 {
						mask := make([]uint64, w)
						for j := range mask {
							mask[j] = r.Uint64()
						}
						injs = append(injs, BatchInjection{Node: src, Pin: -1, Stuck: logic.Value(r.Intn(2)), Mask: mask})
					}
					words := make(logic.WordVec, w)
					for j := range words {
						zero := r.Uint64()
						words[j] = logic.Word{Zero: zero, One: r.Uint64() &^ zero}
					}
					st, in := randXVector(r, c.NumFFs()), randXVector(r, c.NumPIs())
					for _, e := range []*BatchEngine{be, ref} {
						e.Reset()
						e.SetInjections(injs)
						e.SetStateVector(st)
						e.SetPIVector(in)
					}
					be.EvalComb()
					be.SetNodeVec(src, words)
					be.EvalNode(src)
					for _, n := range fanoutCone(c, src) {
						be.EvalNode(n)
					}
					ref.SetNodeVec(src, words)
					ref.EvalComb()
					for n := 0; n < c.NumNodes(); n++ {
						for j := 0; j < w; j++ {
							if got, want := be.Val(n)[j], ref.Val(n)[j]; got != want {
								t.Fatalf("trial %d, source %s: node %d (%s) word %d: EvalNode %+v, EvalComb %+v",
									trial, c.Nodes[src].Name, n, c.Nodes[n].Name, j, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestKernelNoInjectionsUniform checks that with broadcast inputs and no
// injections every word of every slot is uniform and dual-rail valid.
func TestKernelNoInjectionsUniform(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		p := Compile(c)
		be := NewBatch(p, 4)
		r := rand.New(rand.NewSource(3))
		be.SetStateVector(randXVector(r, c.NumFFs()))
		for u := 0; u < 4; u++ {
			be.SetPIVector(randXVector(r, c.NumPIs()))
			be.Step()
			for n := 0; n < c.NumNodes(); n++ {
				wv := be.Val(n)
				if !wv.Valid() {
					t.Fatalf("%s: node %d violates dual-rail invariant", c.Name, n)
				}
				for j := 1; j < len(wv); j++ {
					if wv[j] != wv[0] {
						t.Fatalf("%s: node %d word %d diverges from word 0 without injections", c.Name, n, j)
					}
				}
			}
		}
	}
}

// TestKernelSetWidth checks width switching reuses the arena and stays
// exact at the new width.
func TestKernelSetWidth(t *testing.T) {
	c := samples.S27()
	p := Compile(c)
	be := NewBatch(p, 8)
	if be.Cap() != 8 || be.Width() != 8 {
		t.Fatalf("cap/width = %d/%d", be.Cap(), be.Width())
	}
	for _, w := range []int{1, 3, 8, 2} {
		be.SetWidth(w)
		if be.Width() != w {
			t.Fatalf("width = %d, want %d", be.Width(), w)
		}
		r := rand.New(rand.NewSource(int64(w)))
		injs := randInjections(r, c, w, 3)
		be.SetInjections(injs)
		be.SetStateVector(randXVector(r, c.NumFFs()))
		engines := make([]*Engine, w)
		st := randXVector(r, c.NumFFs())
		be.SetStateVector(st)
		for j := range engines {
			engines[j] = engineForWord(c, injs, j)
			engines[j].SetStateVector(st)
		}
		in := randXVector(r, c.NumPIs())
		be.SetPIVector(in)
		be.Step()
		for j, eng := range engines {
			eng.SetPIVector(in)
			eng.Step()
			compareAll(t, c, be, eng, j, fmt.Sprintf("w=%d", w))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetWidth beyond cap must panic")
		}
	}()
	be.SetWidth(9)
}

// TestCompileShape pins the decomposition contract: every instruction
// is two-input, each fold step of a wide gate writes a temporary slot
// of its own, and the instruction count is gate count plus fold steps.
func TestCompileShape(t *testing.T) {
	c := wideConstCircuit(t)
	p := Compile(c)
	if p.Circuit() != c {
		t.Fatal("Circuit() mismatch")
	}
	wantExtra := 0
	for _, n := range c.EvalOrder() {
		if f := len(c.Nodes[n].Fanin); f > 2 {
			wantExtra += f - 2
		}
	}
	if got := p.NumInstrs(); got != len(c.EvalOrder())+wantExtra {
		t.Errorf("instrs = %d, want %d gates + %d fold steps", got, len(c.EvalOrder()), wantExtra)
	}
	if p.NumSlots() != c.NumNodes()+wantExtra {
		t.Errorf("slots = %d, want %d (one temporary per fold step)", p.NumSlots(), c.NumNodes()+wantExtra)
	}
	// A purely narrow circuit needs no temporary slot.
	narrow := Compile(samples.ShiftReg(4))
	if narrow.NumSlots() != samples.ShiftReg(4).NumNodes() {
		t.Errorf("narrow slots = %d, want node count", narrow.NumSlots())
	}
}
