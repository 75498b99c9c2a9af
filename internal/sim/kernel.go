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

	"repro/internal/circuit"
	"repro/internal/logic"
)

// BatchInjection forces a stuck value onto a signal in a subset of the
// 64*W slots of a BatchEngine. Pin == -1 forces the output of Node (a
// stem fault); Pin >= 0 forces the value Node reads from its Pin-th
// fanin. Mask holds one word per batch word (bit k of Mask[j] selects
// slot j*64+k); words beyond len(Mask) are unaffected.
type BatchInjection struct {
	Node  int
	Pin   int
	Stuck logic.Value
	Mask  []uint64

	// Set by SetInjections on its internal copies: the half-open range
	// [lo, hi) of nonzero Mask words and the broadcast stuck word, so the
	// patch pass touches only the words a fault actually lives in.
	lo, hi int
	fw     logic.Word
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

// Injection flag bits, per arena slot.
const (
	flagOut uint8 = 1 << iota
	flagPin
)

// BatchEngine executes a compiled Program over W-word batches: 64*W
// parallel slots per signal, W being 1 or WideWidth. The value arena is
// allocated once (at the capacity width) and reused across passes; the
// hot loop is a single sweep over the instruction stream with no
// per-gate kind dispatch or fanin-slice walking.
//
// Injections are handled as a patch pass: every node evaluates through
// the fast instruction first, and the few nodes carrying injections are
// fixed immediately after their final instruction (re-evaluated with
// forced fanins for pin injections, masked-merged for output
// injections), preserving topological consistency for downstream
// reads. Each slot carrying one fault equals, node for node, an esim
// engine carrying that fault (TestKernelMatchesEngine).
type BatchEngine struct {
	p   *Program
	c   *circuit.Circuit
	cap int // allocated width in words
	w   int // active width in words (<= cap)

	vals []logic.Word // value arena: slot s occupies vals[s*w : (s+1)*w]

	outInj  [][]BatchInjection // by node whose output is forced
	pinInj  [][]BatchInjection // by consumer node
	masks   []uint64           // the installed injections' masks, copied by SetInjections
	flags   []uint8            // per slot; temporaries stay 0
	touched []int
	srcInj  []int // injected source nodes, forced at EvalComb start

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
		outInj:  make([][]BatchInjection, c.NumNodes()),
		pinInj:  make([][]BatchInjection, c.NumNodes()),
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

// Reset sets every signal to X in all slots and clears injections.
func (e *BatchEngine) Reset() {
	clear(e.vals[:e.p.nslots*e.w])
	e.clearInjections()
}

func (e *BatchEngine) clearInjections() {
	for _, n := range e.touched {
		// Truncate instead of nil: fault simulation re-injects the same
		// nodes pass after pass, so keeping per-node capacity warm avoids
		// an allocation per injection per pass.
		e.outInj[n] = e.outInj[n][:0]
		e.pinInj[n] = e.pinInj[n][:0]
		e.flags[n] = 0
	}
	e.touched = e.touched[:0]
	e.srcInj = e.srcInj[:0]
}

// SetInjections installs the active fault injections, replacing any
// previous set. The engine copies every Mask, so the caller may reuse
// them at once; DropSlots changes only the copies.
func (e *BatchEngine) SetInjections(injs []BatchInjection) {
	e.clearInjections()
	if len(injs) == 0 {
		return
	}
	need := 0
	for _, in := range injs {
		need += len(in.Mask)
	}
	if cap(e.masks) < need {
		e.masks = make([]uint64, need)
	}
	masks := e.masks[:need]
	for _, in := range injs {
		m := masks[:len(in.Mask):len(in.Mask)]
		masks = masks[len(in.Mask):]
		copy(m, in.Mask)
		in.Mask = m
		in.lo = 0
		in.hi = len(in.Mask)
		for in.lo < in.hi && in.Mask[in.lo] == 0 {
			in.lo++
		}
		for in.hi > in.lo && in.Mask[in.hi-1] == 0 {
			in.hi--
		}
		in.fw = logic.FromValue(in.Stuck)
		if e.flags[in.Node] == 0 {
			e.touched = append(e.touched, in.Node)
		}
		if in.Pin < 0 {
			e.outInj[in.Node] = append(e.outInj[in.Node], in)
			if e.flags[in.Node]&flagOut == 0 {
				e.flags[in.Node] |= flagOut
				if e.c.IsSource(in.Node) {
					e.srcInj = append(e.srcInj, in.Node)
				}
			}
		} else {
			e.pinInj[in.Node] = append(e.pinInj[in.Node], in)
			e.flags[in.Node] |= flagPin
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

// fix patches an injected node right after its final instruction: a pin
// injection re-evaluates the whole gate with forced fanins (the slow
// path), then an output injection merges the stuck value into the
// masked slots.
func (e *BatchEngine) fix(n int) {
	if e.flags[n]&flagPin != 0 {
		e.evalForced(n)
	}
	if e.flags[n]&flagOut != 0 {
		e.applyOut(n)
	}
}

// applyOut merges node n's output injections into its value slots.
func (e *BatchEngine) applyOut(n int) {
	e.merge(e.slot(n), e.outInj[n])
}

// merge forces the stuck values of inj into the masked slots of d, a
// value at the active width.
func (e *BatchEngine) merge(d logic.WordVec, inj []BatchInjection) {
	for j := range inj {
		in := &inj[j]
		for i, hi := in.lo, min(in.hi, e.w); i < hi; i++ {
			if mask := in.Mask[i]; mask != 0 {
				d[i] = d[i].Merge(in.fw, mask)
			}
		}
	}
}

// evalForced patches gate n after its fast instruction: only the words
// whose slots carry a pin injection are re-folded (with forced fanins);
// every other word keeps the fast result, which is bit-identical to the
// unforced fold. A fault pins a handful of slots, so this costs O(pins)
// per flagged gate instead of O(width) — the patch pass stays constant
// as the batch widens.
func (e *BatchEngine) evalForced(n int) {
	w := e.w
	inj := e.pinInj[n]
	for j := range inj {
		in := &inj[j]
		hi := in.hi
		if hi > w {
			hi = w
		}
		for i := in.lo; i < hi; i++ {
			// A word shared by two injections is re-folded once per
			// injection; the second fold writes the same bits, so the
			// duplicate work is harmless (and rare).
			if in.Mask[i] != 0 {
				e.evalForcedWord(n, i)
			}
		}
	}
}

// faninForcedWord returns word i of the value node n reads from its
// p-th fanin, with pin injections on that word applied.
func (e *BatchEngine) faninForcedWord(n, p, i int) logic.Word {
	v := e.vals[e.c.Nodes[n].Fanin[p]*e.w+i]
	inj := e.pinInj[n]
	for j := range inj {
		if in := &inj[j]; in.Pin == p && i < len(in.Mask) && in.Mask[i] != 0 {
			v = v.Merge(in.fw, in.Mask[i])
		}
	}
	return v
}

// evalForcedWord re-evaluates word i of gate n reading every fanin
// through faninForcedWord, folding from the identity element.
func (e *BatchEngine) evalForcedWord(n, i int) {
	nd := &e.c.Nodes[n]
	var v logic.Word
	switch nd.Kind {
	case circuit.Not:
		v = e.faninForcedWord(n, 0, i).Not()
	case circuit.Buf:
		v = e.faninForcedWord(n, 0, i)
	case circuit.And, circuit.Nand:
		v = logic.AllOne
		for p := range nd.Fanin {
			v = v.And(e.faninForcedWord(n, p, i))
		}
		if nd.Kind == circuit.Nand {
			v = v.Not()
		}
	case circuit.Or, circuit.Nor:
		v = logic.AllZero
		for p := range nd.Fanin {
			v = v.Or(e.faninForcedWord(n, p, i))
		}
		if nd.Kind == circuit.Nor {
			v = v.Not()
		}
	case circuit.Xor, circuit.Xnor:
		v = logic.AllZero
		for p := range nd.Fanin {
			v = v.Xor(e.faninForcedWord(n, p, i))
		}
		if nd.Kind == circuit.Xnor {
			v = v.Not()
		}
	default:
		panic(fmt.Sprintf("sim: evalForced on non-gate node %d (%v)", n, nd.Kind))
	}
	e.vals[n*e.w+i] = v
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
			e.merge(d, e.pinInj[ff])
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
