// Package sim implements logic simulation for the netlists of package
// circuit, with fault-injection hooks, on one engine: the compiled
// kernel. Compile lowers a circuit into a straight-line program of
// dual-rail word operations (compile.go), and a BatchEngine runs it over
// 64*W parallel slots. The kernel has two widths: one word, and
// WideWidth words; WidthFor picks between them. fsim's passes, seqgen's
// fault groups, tfault's capture frames and good machine, PODEM's
// good/faulty pair and response's good machine all run on it. The
// event-driven engine of package esim counts switching activity for
// package power and is the independent reference the kernel is tested
// against.
package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// BatchInjection forces a stuck value onto a signal in a subset of the
// 64*W slots of a BatchEngine. Pin == -1 forces the output of Node (a
// stem fault); Pin >= 0 forces the value Node reads from its Pin-th
// fanin. Mask holds one word per batch word (bit k of Mask[j] selects
// slot j*64+k); words beyond len(Mask) are unaffected. Stuck may be X.
type BatchInjection struct {
	Node  int
	Pin   int
	Stuck logic.Value
	Mask  []uint64
}

// WideWidth is the kernel's wide batch width: 4 words, 256 slots. A
// batch runs at one word or at WideWidth words, no other width.
const WideWidth = 4

// WidthFor returns the width in words of a batch that holds n parallel
// machines: one word for at most 64, WideWidth otherwise. A caller with
// more than 64*WideWidth machines splits them into batches.
func WidthFor(n int) int {
	if n <= logic.SlotCount {
		return 1
	}
	return WideWidth
}

// checkWidth panics unless w is one of the kernel's two widths.
func checkWidth(w int) {
	if w != 1 && w != WideWidth {
		panic(fmt.Sprintf("sim: width %d, want 1 or %d", w, WideWidth))
	}
}

// Injection flag bits, per arena slot. Every injected node has flagOut
// or flagPin set, or both; the bits from pinWord up mark the words that
// carry a live pin force (pinWord<<i for word i), the only words
// evalForced re-folds. Temporaries stay 0.
const (
	flagOut uint8 = 1 << iota
	flagPin
	pinWord
)

// force is the injections on one word of one signal, combined: the
// slots of mask read v instead of the signal. A slot of mask set on
// neither of v's rails reads X; v's bits outside mask are ignored.
type force struct {
	mask uint64
	v    logic.Word
}

// apply forces d, one force per word.
func apply(d logic.WordVec, fs []force) {
	for i := range d {
		d[i] = d[i].Merge(fs[i].v, fs[i].mask)
	}
}

// BatchEngine executes a compiled Program over W-word batches: 64*W
// parallel slots per signal, W being 1 or WideWidth. The value arena is
// allocated once (at the capacity width) and reused across passes; the
// hot loop is a single sweep over the instruction stream with no
// per-gate kind dispatch or fanin-slice walking.
//
// Injections are handled as a patch pass. SetInjections combines them
// into one force per signal word, in the force arena, and every node
// evaluates through the fast instruction first. A node carrying forces
// is fixed right after its final instruction: each word with a pin
// force is re-folded once with its fanins forced, then the output
// forces are applied. Downstream reads so stay topologically
// consistent. Each slot carrying one fault equals, node for node, an
// esim engine carrying that fault (TestKernelMatchesEngine).
type BatchEngine struct {
	p   *Program
	c   *circuit.Circuit
	cap int // allocated width in words
	w   int // active width in words (<= cap)

	vals []logic.Word // value arena: slot s occupies vals[s*w : (s+1)*w]

	// The force arena, refilled by every SetInjections: an injected node
	// n owns forces[at[n]:], w words for its output, then w for each of
	// its fanin pins (forcesOf).
	forces  []force
	at      []int32 // per node
	flags   []uint8 // per slot
	touched []int   // the injected nodes, in order of first injection
	srcInj  []int   // injected source nodes, forced at EvalComb start

	scratch []logic.Word // per-DFF next-state buffer (nff * cap)

	ev *events // event-frame state (events.go), nil until StartEvents
}

// NewBatch returns a BatchEngine executing p over w-word batches, with
// all signals X. w must be 1 or WideWidth; NewBatch panics otherwise.
// The width is also the engine's capacity: SetWidth can later shrink
// (and re-grow) the active width without reallocating.
func NewBatch(p *Program, w int) *BatchEngine {
	checkWidth(w)
	c := p.c
	e := &BatchEngine{
		p:       p,
		c:       c,
		cap:     w,
		w:       w,
		vals:    make([]logic.Word, p.nslots*w),
		at:      make([]int32, c.NumNodes()),
		flags:   make([]uint8, p.nslots),
		scratch: make([]logic.Word, c.NumFFs()*w),
	}
	return e
}

// Circuit returns the netlist this engine simulates.
func (e *BatchEngine) Circuit() *circuit.Circuit { return e.c }

// Program returns the compiled program this engine executes.
func (e *BatchEngine) Program() *Program { return e.p }

// Width returns the active batch width in words.
func (e *BatchEngine) Width() int { return e.w }

// SetWidth switches the active batch width to w and resets the engine.
// Passes of different widths can so share one arena. w must be 1 or
// WideWidth, and at most the width the engine was created with;
// SetWidth panics otherwise.
func (e *BatchEngine) SetWidth(w int) {
	checkWidth(w)
	if w > e.cap {
		panic(fmt.Sprintf("sim: SetWidth(%d) past the capacity of %d words", w, e.cap))
	}
	e.w = w
	e.Reset()
}

// slot returns the value words of arena slot s.
func (e *BatchEngine) slot(s int) logic.WordVec {
	return e.vals[s*e.w : (s+1)*e.w : (s+1)*e.w]
}

// forcesOf returns injected node n's forces: w words for its output,
// then w for each fanin pin.
func (e *BatchEngine) forcesOf(n int) []force {
	k := int(e.at[n])
	end := k + (1+len(e.c.Nodes[n].Fanin))*e.w
	return e.forces[k:end:end]
}

// forced returns injected node n's w forces on its fanin pin p, or on
// its output for p == -1.
func (e *BatchEngine) forced(n, p int) []force {
	k := int(e.at[n]) + (1+p)*e.w
	return e.forces[k : k+e.w : k+e.w]
}

// Reset sets every signal to X in all slots and clears injections.
func (e *BatchEngine) Reset() {
	clear(e.vals[:e.p.nslots*e.w])
	e.clearInjections()
}

func (e *BatchEngine) clearInjections() {
	for _, n := range e.touched {
		e.flags[n] = 0
	}
	e.touched = e.touched[:0]
	e.srcInj = e.srcInj[:0]
	e.forces = e.forces[:0]
}

// SetInjections installs the active fault injections, replacing any
// previous set. It folds them, in order, into one force per signal word
// in the engine's own arena, so where two injections force one slot of
// one signal the later one wins, and the caller may reuse the masks at
// once. Mask words past the active width are ignored. SetInjections
// panics on a Pin past Node's fanins.
func (e *BatchEngine) SetInjections(injs []BatchInjection) {
	e.clearInjections()
	w := e.w
	for _, in := range injs {
		n := in.Node
		if e.flags[n] == 0 {
			k, size := len(e.forces), (1+len(e.c.Nodes[n].Fanin))*w
			e.touched = append(e.touched, n)
			e.at[n] = int32(k)
			e.forces = slices.Grow(e.forces, size)[:k+size]
			clear(e.forces[k:])
		}
		fs := e.forcesOf(n)[(1+in.Pin)*w:][:w]
		v := logic.FromValue(in.Stuck)
		for i, m := range in.Mask[:min(len(in.Mask), w)] {
			fs[i].mask |= m
			fs[i].v = fs[i].v.Merge(v, m)
			if in.Pin >= 0 && m != 0 {
				e.flags[n] |= pinWord << i
			}
		}
		if in.Pin >= 0 {
			e.flags[n] |= flagPin
		} else if e.flags[n]&flagOut == 0 {
			e.flags[n] |= flagOut
			if e.c.IsSource(n) {
				e.srcInj = append(e.srcInj, n)
			}
		}
	}
}

// SetPIVector broadcasts a scalar PI vector to all slots.
func (e *BatchEngine) SetPIVector(vec logic.Vector) {
	w := e.w
	for i, pi := range e.c.PIs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		wd := logic.FromValue(v)
		d := e.vals[pi*w : (pi+1)*w]
		for k := range d {
			d[k] = wd
		}
	}
}

// SetStateVector broadcasts a scalar state (scan-in vector) to all
// slots; positions beyond len(vec) become X.
func (e *BatchEngine) SetStateVector(vec logic.Vector) {
	for i := range e.c.DFFs {
		v := logic.X
		if i < len(vec) {
			v = vec[i]
		}
		e.SetStateValue(i, v)
	}
}

// SetStateValue broadcasts a scalar value to the i-th flip-flop
// (scan order) in all slots.
func (e *BatchEngine) SetStateValue(i int, v logic.Value) {
	e.slot(e.c.DFFs[i]).Fill(logic.FromValue(v))
}

// SetNodeVec copies wv (up to the active width) into node n's slots.
// Values written to a gate are overwritten by the next EvalComb; on a
// source they stay: loading per-slot flip-flop words this way restores
// a saved set of machine states, and writing input words drives the
// inputs directly.
func (e *BatchEngine) SetNodeVec(n int, wv logic.WordVec) {
	copy(e.slot(n), wv)
}

// Val returns the current value words of node n. The returned slice
// aliases the arena; treat it as read-only.
func (e *BatchEngine) Val(n int) logic.WordVec { return e.slot(n) }

// PO returns the value words of the i-th primary output (read-only).
func (e *BatchEngine) PO(i int) logic.WordVec { return e.slot(e.c.POs[i]) }

// State returns the value words of the i-th flip-flop (read-only).
func (e *BatchEngine) State(i int) logic.WordVec { return e.slot(e.c.DFFs[i]) }

// EvalComb evaluates the combinational network from the current PI and
// state values: constants are driven, source-output injections applied,
// then the instruction stream executes with injected nodes patched in
// topological position.
func (e *BatchEngine) EvalComb() {
	for _, n := range e.p.const0 {
		e.slot(int(n)).Fill(logic.AllZero)
	}
	for _, n := range e.p.const1 {
		e.slot(int(n)).Fill(logic.AllOne)
	}
	for _, n := range e.srcInj {
		e.applyOut(n)
	}
	e.exec(e.p.instrs)
}

// exec runs a stretch of the compiled instruction stream (all of it, or
// one instruction of an event frame) over the active width. This is the
// hottest loop in the repository: keep it allocation-free and
// branch-predictable. Each of the two widths has a loop of its own whose
// value accesses need no slice headers, no bounds checks and no
// per-instruction loop setup.
func (e *BatchEngine) exec(instrs []instr) {
	if e.w == 1 {
		e.exec1(instrs)
	} else {
		e.exec4(instrs)
	}
}

// exec1 is exec for 1-word batches (64 slots), the width of every pass
// whose machines fit one word: each operand is a single Word read and
// written by value, with no per-instruction slice setup.
func (e *BatchEngine) exec1(instrs []instr) {
	vals := e.vals
	flags := e.flags
	for _, ins := range instrs {
		a := vals[ins.a]
		var v logic.Word
		switch ins.op {
		case opBuf:
			v = a
		case opNot:
			v = logic.Word{Zero: a.One, One: a.Zero}
		case opAnd2:
			b := vals[ins.b]
			v = logic.Word{Zero: a.Zero | b.Zero, One: a.One & b.One}
		case opNand2:
			b := vals[ins.b]
			v = logic.Word{Zero: a.One & b.One, One: a.Zero | b.Zero}
		case opOr2:
			b := vals[ins.b]
			v = logic.Word{Zero: a.Zero & b.Zero, One: a.One | b.One}
		case opNor2:
			b := vals[ins.b]
			v = logic.Word{Zero: a.One | b.One, One: a.Zero & b.Zero}
		case opXor2:
			b := vals[ins.b]
			v = logic.Word{Zero: a.Zero&b.Zero | a.One&b.One, One: a.Zero&b.One | a.One&b.Zero}
		case opXnor2:
			b := vals[ins.b]
			v = logic.Word{Zero: a.Zero&b.One | a.One&b.Zero, One: a.Zero&b.Zero | a.One&b.One}
		}
		vals[ins.dst] = v
		if flags[ins.dst] != 0 {
			e.fix(int(ins.dst))
		}
	}
}

// exec4 is exec for WideWidth (4-word, 256-slot) batches. Array-pointer
// conversion pins the operand width at compile time: the compiler drops
// every bounds check and the loop setup per instruction.
func (e *BatchEngine) exec4(instrs []instr) {
	vals := e.vals
	flags := e.flags
	for _, ins := range instrs {
		d := (*[4]logic.Word)(vals[int(ins.dst)*4:])
		a := (*[4]logic.Word)(vals[int(ins.a)*4:])
		switch ins.op {
		case opBuf:
			*d = *a
		case opNot:
			d[0] = logic.Word{Zero: a[0].One, One: a[0].Zero}
			d[1] = logic.Word{Zero: a[1].One, One: a[1].Zero}
			d[2] = logic.Word{Zero: a[2].One, One: a[2].Zero}
			d[3] = logic.Word{Zero: a[3].One, One: a[3].Zero}
		case opAnd2:
			bb := (*[4]logic.Word)(vals[int(ins.b)*4:])
			d[0] = logic.Word{Zero: a[0].Zero | bb[0].Zero, One: a[0].One & bb[0].One}
			d[1] = logic.Word{Zero: a[1].Zero | bb[1].Zero, One: a[1].One & bb[1].One}
			d[2] = logic.Word{Zero: a[2].Zero | bb[2].Zero, One: a[2].One & bb[2].One}
			d[3] = logic.Word{Zero: a[3].Zero | bb[3].Zero, One: a[3].One & bb[3].One}
		case opNand2:
			bb := (*[4]logic.Word)(vals[int(ins.b)*4:])
			d[0] = logic.Word{Zero: a[0].One & bb[0].One, One: a[0].Zero | bb[0].Zero}
			d[1] = logic.Word{Zero: a[1].One & bb[1].One, One: a[1].Zero | bb[1].Zero}
			d[2] = logic.Word{Zero: a[2].One & bb[2].One, One: a[2].Zero | bb[2].Zero}
			d[3] = logic.Word{Zero: a[3].One & bb[3].One, One: a[3].Zero | bb[3].Zero}
		case opOr2:
			bb := (*[4]logic.Word)(vals[int(ins.b)*4:])
			d[0] = logic.Word{Zero: a[0].Zero & bb[0].Zero, One: a[0].One | bb[0].One}
			d[1] = logic.Word{Zero: a[1].Zero & bb[1].Zero, One: a[1].One | bb[1].One}
			d[2] = logic.Word{Zero: a[2].Zero & bb[2].Zero, One: a[2].One | bb[2].One}
			d[3] = logic.Word{Zero: a[3].Zero & bb[3].Zero, One: a[3].One | bb[3].One}
		case opNor2:
			bb := (*[4]logic.Word)(vals[int(ins.b)*4:])
			d[0] = logic.Word{Zero: a[0].One | bb[0].One, One: a[0].Zero & bb[0].Zero}
			d[1] = logic.Word{Zero: a[1].One | bb[1].One, One: a[1].Zero & bb[1].Zero}
			d[2] = logic.Word{Zero: a[2].One | bb[2].One, One: a[2].Zero & bb[2].Zero}
			d[3] = logic.Word{Zero: a[3].One | bb[3].One, One: a[3].Zero & bb[3].Zero}
		case opXor2:
			bb := (*[4]logic.Word)(vals[int(ins.b)*4:])
			d[0] = logic.Word{Zero: a[0].Zero&bb[0].Zero | a[0].One&bb[0].One, One: a[0].Zero&bb[0].One | a[0].One&bb[0].Zero}
			d[1] = logic.Word{Zero: a[1].Zero&bb[1].Zero | a[1].One&bb[1].One, One: a[1].Zero&bb[1].One | a[1].One&bb[1].Zero}
			d[2] = logic.Word{Zero: a[2].Zero&bb[2].Zero | a[2].One&bb[2].One, One: a[2].Zero&bb[2].One | a[2].One&bb[2].Zero}
			d[3] = logic.Word{Zero: a[3].Zero&bb[3].Zero | a[3].One&bb[3].One, One: a[3].Zero&bb[3].One | a[3].One&bb[3].Zero}
		case opXnor2:
			bb := (*[4]logic.Word)(vals[int(ins.b)*4:])
			d[0] = logic.Word{Zero: a[0].Zero&bb[0].One | a[0].One&bb[0].Zero, One: a[0].Zero&bb[0].Zero | a[0].One&bb[0].One}
			d[1] = logic.Word{Zero: a[1].Zero&bb[1].One | a[1].One&bb[1].Zero, One: a[1].Zero&bb[1].Zero | a[1].One&bb[1].One}
			d[2] = logic.Word{Zero: a[2].Zero&bb[2].One | a[2].One&bb[2].Zero, One: a[2].Zero&bb[2].Zero | a[2].One&bb[2].One}
			d[3] = logic.Word{Zero: a[3].Zero&bb[3].One | a[3].One&bb[3].Zero, One: a[3].Zero&bb[3].Zero | a[3].One&bb[3].One}
		}
		if flags[ins.dst] != 0 {
			e.fix(int(ins.dst))
		}
	}
}

// fix patches an injected node right after its final instruction: the
// words carrying a pin force are re-folded, then the output forces are
// applied.
func (e *BatchEngine) fix(n int) {
	if e.flags[n]&flagPin != 0 {
		e.evalForced(n)
	}
	if e.flags[n]&flagOut != 0 {
		e.applyOut(n)
	}
}

// applyOut applies node n's output forces to its value words.
func (e *BatchEngine) applyOut(n int) {
	apply(e.slot(n), e.forced(n, -1))
}

// evalForced patches gate n after its fast instruction: each word
// marked in its flags as carrying a pin force is re-folded once, every
// fanin read through that pin's force on the word. The other words keep
// the fast result, which is bit-identical to the unforced fold. Faults
// packed in ascending index put a gate's faults in adjacent slots, so
// several often share a word, and the word is still folded once.
func (e *BatchEngine) evalForced(n int) {
	nd := &e.c.Nodes[n]
	w := e.w
	pins := e.forces[int(e.at[n])+w:] // pin p's force on word i is pins[p*w+i]
	for ws := e.flags[n] / pinWord; ws != 0; ws &= ws - 1 {
		i := bits.TrailingZeros8(ws)
		f := &pins[i]
		v := e.vals[nd.Fanin[0]*w+i].Merge(f.v, f.mask)
		for p := 1; p < len(nd.Fanin); p++ {
			f := &pins[p*w+i]
			x := e.vals[nd.Fanin[p]*w+i].Merge(f.v, f.mask)
			switch nd.Kind {
			case circuit.And, circuit.Nand:
				v = v.And(x)
			case circuit.Or, circuit.Nor:
				v = v.Or(x)
			default: // Xor, Xnor; Buf and Not have one fanin
				v = v.Xor(x)
			}
		}
		switch nd.Kind {
		case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
			v = v.Not()
		}
		e.vals[n*w+i] = v
	}
}

// NextState writes the D values the flip-flops would latch on the next
// functional clock into dst, flip-flop i at dst[i*Width():(i+1)*Width()].
// DFF pin injections are applied and DFF output injections are not.
// EvalComb must have run for the current inputs.
func (e *BatchEngine) NextState(dst []logic.Word) {
	w := e.w
	for i, ff := range e.c.DFFs {
		d := dst[i*w : (i+1)*w]
		copy(d, e.slot(e.c.Nodes[ff].Fanin[0]))
		if e.flags[ff]&flagPin != 0 {
			apply(d, e.forced(ff, 0))
		}
	}
}

// ClockFF latches the NextState values into the flip-flops, applying
// output injections on DFF nodes.
func (e *BatchEngine) ClockFF() {
	w := e.w
	e.NextState(e.scratch)
	for i, ff := range e.c.DFFs {
		copy(e.slot(ff), e.scratch[i*w:(i+1)*w])
		if e.flags[ff]&flagOut != 0 {
			e.applyOut(ff)
		}
	}
}

// Step applies one functional clock cycle: evaluate the combinational
// network, then latch the flip-flops.
func (e *BatchEngine) Step() {
	e.EvalComb()
	e.ClockFF()
}
