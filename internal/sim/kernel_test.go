package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
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

// slotFault is one faulty machine of a batch: slot carries a stuck-at
// on node's output (pin -1) or on its pin-th input.
type slotFault struct {
	slot      int
	node, pin int
	stuck     logic.Value
}

// randSlotFaults places n random faults on distinct slots of a w-word
// batch, one per slot as every caller packs them: stems, gate input
// pins, DFF D pins and stuck FF outputs. About one in three shares the
// previous fault's node and word, so several injections combine into
// one force on a word of a node (evalForced's shared-word path). About
// one in five is stuck at X: no caller forces X, but the kernel and
// esim both define it, and a force must carry it on neither rail.
func randSlotFaults(r *rand.Rand, c *circuit.Circuit, w, n int) []slotFault {
	used := map[int]bool{}
	var fs []slotFault
	for len(fs) < n {
		node, slot := r.Intn(c.NumNodes()), r.Intn(64*w)
		if k := len(fs); k > 0 && r.Intn(3) == 0 {
			node, slot = fs[k-1].node, fs[k-1].slot&^63|r.Intn(64)
		}
		kind := c.Nodes[node].Kind
		if kind == circuit.Const0 || kind == circuit.Const1 || used[slot] {
			continue
		}
		pin := -1
		if len(c.Nodes[node].Fanin) > 0 && r.Intn(2) == 0 {
			pin = r.Intn(len(c.Nodes[node].Fanin))
		}
		stuck := logic.Value(r.Intn(2))
		if r.Intn(5) == 0 {
			stuck = logic.X
		}
		used[slot] = true
		fs = append(fs, slotFault{slot: slot, node: node, pin: pin, stuck: stuck})
	}
	return fs
}

// slotInjections turns the faults into one-slot injections of a w-word
// batch.
func slotInjections(fs []slotFault, w int) []BatchInjection {
	injs := make([]BatchInjection, len(fs))
	for i, f := range fs {
		mask := make([]uint64, w)
		mask[f.slot>>6] = 1 << (f.slot & 63)
		injs[i] = BatchInjection{Node: f.node, Pin: f.pin, Stuck: f.stuck, Mask: mask}
	}
	return injs
}

// reference is the event-driven side of a kernel comparison: one esim
// engine per faulty slot, each carrying its slot's fault, and a good
// engine for every other slot.
type reference struct {
	c      *circuit.Circuit
	faults []slotFault
	good   *esim.Engine
	bad    []*esim.Engine
}

func newReference(c *circuit.Circuit, fs []slotFault) *reference {
	ref := &reference{c: c, faults: fs, good: esim.New(c)}
	for _, f := range fs {
		e := esim.New(c)
		e.InjectFault(f.node, f.pin, f.stuck)
		ref.bad = append(ref.bad, e)
	}
	return ref
}

// each applies fn to the good engine and to every faulty one.
func (ref *reference) each(fn func(*esim.Engine)) {
	fn(ref.good)
	for _, e := range ref.bad {
		fn(e)
	}
}

// words returns the value a w-word batch must carry when slot s holds
// val of the engine that stands for s.
func (ref *reference) words(w int, val func(e *esim.Engine, f *slotFault) logic.Value) logic.WordVec {
	wv := make(logic.WordVec, w)
	wv.Fill(logic.FromValue(val(ref.good, nil)))
	for k := range ref.faults {
		f := &ref.faults[k]
		wv.Set(f.slot, val(ref.bad[k], f))
	}
	return wv
}

// compareNodes checks every node of the kernel arena against the
// reference, slot for slot.
func (ref *reference) compareNodes(t *testing.T, be *BatchEngine, tag string) {
	t.Helper()
	for n := 0; n < ref.c.NumNodes(); n++ {
		want := ref.words(be.Width(), func(e *esim.Engine, _ *slotFault) logic.Value { return e.Val(n) })
		if got := be.Val(n); !got.Equal(want) {
			t.Fatalf("%s: node %d (%s): kernel %+v, esim %+v", tag, n, ref.c.Nodes[n].Name, got, want)
		}
	}
}

// compareNext checks the kernel's NextState words against the values
// the reference engines latch at the next clock before an output fault
// forces them: the D driver's value, or the stuck value of a D-pin
// fault.
func (ref *reference) compareNext(t *testing.T, next []logic.Word, w int, tag string) {
	t.Helper()
	c := ref.c
	for i, ff := range c.DFFs {
		want := ref.words(w, func(e *esim.Engine, f *slotFault) logic.Value {
			if f != nil && f.node == ff && f.pin == 0 {
				return f.stuck
			}
			return e.Val(c.Nodes[ff].Fanin[0])
		})
		if got := logic.WordVec(next[i*w : (i+1)*w]); !got.Equal(want) {
			t.Fatalf("%s: flip-flop %d next state: kernel %+v, esim %+v", tag, i, got, want)
		}
	}
}

// TestKernelMatchesEngine is the node-exact differential against the
// event-driven engine: for every circuit, both widths and random (faults,
// X-bearing sequence), each slot of the BatchEngine must equal an esim
// run carrying that slot's fault, or none — after every combinational
// evaluation, in the NextState values, and after every clock.
func TestKernelMatchesEngine(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		p := Compile(c)
		for _, w := range []int{1, WideWidth} {
			t.Run(fmt.Sprintf("%s/w%d", c.Name, w), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(41*w) + int64(c.NumNodes())))
				be := NewBatch(p, w)
				next := make([]logic.Word, c.NumFFs()*w)
				for trial := 0; trial < 4; trial++ {
					be.Reset()
					fs := randSlotFaults(r, c, w, 1+r.Intn(8*w))
					be.SetInjections(slotInjections(fs, w))
					ref := newReference(c, fs)
					st := randXVector(r, c.NumFFs())
					be.SetStateVector(st)
					ref.each(func(e *esim.Engine) { e.SetStateVector(st) })
					for u := 0; u < 6; u++ {
						in := randXVector(r, c.NumPIs())
						be.SetPIVector(in)
						be.EvalComb()
						be.NextState(next)
						ref.each(func(e *esim.Engine) {
							e.SetPIVector(in)
							e.Settle()
						})
						tag := fmt.Sprintf("trial %d u %d", trial, u)
						ref.compareNodes(t, be, tag+" eval")
						ref.compareNext(t, next, w, tag)
						be.ClockFF()
						ref.each((*esim.Engine).ClockFF)
						ref.compareNodes(t, be, tag+" clock")
					}
				}
			})
		}
	}
}

// TestInjectedPassAllocs checks that a warmed engine runs an injected
// pass (Reset, SetInjections, SetStateVector, EvalComb, ClockFF) without
// allocating, at both widths: the force arena is reused across passes.
func TestInjectedPassAllocs(t *testing.T) {
	for _, c := range kernelTestCircuits(t) {
		be := NewBatch(Compile(c), WideWidth)
		for _, w := range []int{1, WideWidth} {
			be.SetWidth(w)
			r := rand.New(rand.NewSource(int64(w)))
			injs := slotInjections(randSlotFaults(r, c, w, 64*w-1), w)
			st := randXVector(r, c.NumFFs())
			pass := func() {
				be.Reset()
				be.SetInjections(injs)
				be.SetStateVector(st)
				be.EvalComb()
				be.ClockFF()
			}
			pass()
			if n := testing.AllocsPerRun(20, pass); n != 0 {
				t.Errorf("%s/w%d: an injected pass allocates %v times, want 0", c.Name, w, n)
			}
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

// TestKernelSetWidth checks the kernel's two widths: NewBatch and
// SetWidth reject every other width, and SetWidth a width past the
// engine's capacity; switching from the wide width to one word and back
// reuses the arena and stays exact at each width.
func TestKernelSetWidth(t *testing.T) {
	c := samples.S27()
	p := Compile(c)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	be := NewBatch(p, WideWidth)
	for _, w := range []int{0, 2, 3, 8} {
		mustPanic(fmt.Sprintf("NewBatch(%d)", w), func() { NewBatch(p, w) })
		mustPanic(fmt.Sprintf("SetWidth(%d)", w), func() { be.SetWidth(w) })
	}
	mustPanic("SetWidth past the capacity", func() { NewBatch(p, 1).SetWidth(WideWidth) })
	if be.Width() != WideWidth {
		t.Fatalf("width = %d after rejected switches, want %d", be.Width(), WideWidth)
	}
	for _, w := range []int{1, WideWidth} {
		be.SetWidth(w)
		if be.Width() != w {
			t.Fatalf("width = %d, want %d", be.Width(), w)
		}
		r := rand.New(rand.NewSource(int64(w)))
		fs := randSlotFaults(r, c, w, 3)
		be.SetInjections(slotInjections(fs, w))
		ref := newReference(c, fs)
		st := randXVector(r, c.NumFFs())
		be.SetStateVector(st)
		ref.each(func(e *esim.Engine) { e.SetStateVector(st) })
		in := randXVector(r, c.NumPIs())
		be.SetPIVector(in)
		be.Step()
		ref.each(func(e *esim.Engine) { e.Step(in) })
		ref.compareNodes(t, be, fmt.Sprintf("w=%d", w))
	}
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
