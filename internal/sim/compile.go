package sim

import (
	"fmt"

	"repro/internal/circuit"
)

// This file lowers a levelized circuit into a straight-line program of
// two-input dual-rail word operations — the compile step of the batch
// kernel in kernel.go. Compilation happens once per circuit; the
// resulting Program is immutable and shared by any number of
// BatchEngines (one per fault-simulation worker).
//
// Wide gates (fanin > 2) are decomposed at compile time into a
// left-fold chain over the fanins in order; three-valued AND, OR and XOR
// are associative, so the fold computes the gate's value. Each fold step
// writes a temporary slot of its own, so every instruction's result has
// one arena slot and the event frames of events.go can schedule
// instructions, not nodes. Inverting kinds (NAND/NOR/XNOR) fold with the
// non-inverting opcode and invert on the final instruction. One-input
// gates degenerate to BUF/NOT.

// opcode identifies one dual-rail word operation of the compiled
// program. All binary opcodes take exactly two operands; wide gates are
// decomposed by the compiler.
type opcode uint8

const (
	opBuf opcode = iota
	opNot
	opAnd2
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
)

// instr is one straight-line program step: slot dst receives op applied
// to slots a and b (b is ignored by the unary opcodes). Slot indices
// address the kernel's value arena: slots [0, NumNodes) are circuit
// nodes, slots beyond that are compiler temporaries.
type instr struct {
	op   opcode
	dst  int32
	a, b int32
}

// Program is a compiled circuit: the instruction stream plus the slot
// geometry a BatchEngine needs to allocate its value arena. A Program
// is immutable after Compile and safe for concurrent use.
type Program struct {
	c      *circuit.Circuit
	instrs []instr
	nslots int     // NumNodes + compiler temporaries
	const0 []int32 // Const0 node slots, driven before every evaluation
	const1 []int32 // Const1 node slots
	// final holds each gate's final instruction, the one that writes the
	// gate's own slot; a source's entry is -1.
	final []int32
	// Consumers of each slot s, in compressed rows: the instructions
	// reading s are readers[readerAt[s]:readerAt[s+1]], in stream order,
	// and the flip-flops (by index) whose D pin s drives are
	// latchers[latchAt[s]:latchAt[s+1]]. Event frames follow them.
	readerAt, readers []int32
	latchAt, latchers []int32
	ffIdx             []int32 // per node: its flip-flop index, or -1
}

// Compile lowers c into a straight-line dual-rail program. The
// instruction stream evaluates every combinational node in topological
// order; sources (PIs, DFF outputs, constants) are arena slots written
// by the BatchEngine before execution.
func Compile(c *circuit.Circuit) *Program {
	p := &Program{c: c, nslots: c.NumNodes()}
	temp := func() int32 {
		p.nslots++
		return int32(p.nslots - 1)
	}
	for i := range c.Nodes {
		switch c.Nodes[i].Kind {
		case circuit.Const0:
			p.const0 = append(p.const0, int32(i))
		case circuit.Const1:
			p.const1 = append(p.const1, int32(i))
		}
	}
	for _, n := range c.EvalOrder() {
		nd := &c.Nodes[n]
		fan := nd.Fanin
		dst := int32(n)
		var fold, final opcode
		switch nd.Kind {
		case circuit.Not:
			p.instrs = append(p.instrs, instr{op: opNot, dst: dst, a: int32(fan[0])})
			continue
		case circuit.Buf:
			p.instrs = append(p.instrs, instr{op: opBuf, dst: dst, a: int32(fan[0])})
			continue
		case circuit.And:
			fold, final = opAnd2, opAnd2
		case circuit.Nand:
			fold, final = opAnd2, opNand2
		case circuit.Or:
			fold, final = opOr2, opOr2
		case circuit.Nor:
			fold, final = opOr2, opNor2
		case circuit.Xor:
			fold, final = opXor2, opXor2
		case circuit.Xnor:
			fold, final = opXor2, opXnor2
		default:
			panic(fmt.Sprintf("sim: compile of non-gate node %d (%v)", n, nd.Kind))
		}
		if len(fan) == 1 {
			// Degenerate gate: the fanin value, inverted for the
			// inverting kinds.
			op := opBuf
			if final != fold {
				op = opNot
			}
			p.instrs = append(p.instrs, instr{op: op, dst: dst, a: int32(fan[0])})
			continue
		}
		cur := int32(fan[0])
		for i := 1; i < len(fan)-1; i++ {
			t := temp()
			p.instrs = append(p.instrs, instr{op: fold, dst: t, a: cur, b: int32(fan[i])})
			cur = t
		}
		p.instrs = append(p.instrs, instr{op: final, dst: dst, a: cur, b: int32(fan[len(fan)-1])})
	}
	p.final = make([]int32, c.NumNodes())
	for n := range p.final {
		p.final[n] = -1
	}
	for i, ins := range p.instrs {
		if int(ins.dst) < c.NumNodes() {
			p.final[ins.dst] = int32(i)
		}
	}
	p.readerAt, p.readers = csr(p.nslots, func(emit func(slot, v int32)) {
		for i, ins := range p.instrs {
			emit(ins.a, int32(i))
			if ins.op > opNot && ins.b != ins.a {
				emit(ins.b, int32(i))
			}
		}
	})
	p.latchAt, p.latchers = csr(p.nslots, func(emit func(slot, v int32)) {
		for i, ff := range c.DFFs {
			emit(int32(c.Nodes[ff].Fanin[0]), int32(i))
		}
	})
	p.ffIdx = make([]int32, c.NumNodes())
	for n := range p.ffIdx {
		p.ffIdx[n] = -1
	}
	for i, ff := range c.DFFs {
		p.ffIdx[ff] = int32(i)
	}
	return p
}

// csr builds compressed rows over n slots from the (slot, value) pairs
// walk emits: row s lists its values in emission order.
func csr(n int, walk func(emit func(slot, v int32))) (at, vals []int32) {
	at = make([]int32, n+1)
	walk(func(s, _ int32) { at[s+1]++ })
	for s := 0; s < n; s++ {
		at[s+1] += at[s]
	}
	vals = make([]int32, at[n])
	fill := append([]int32(nil), at[:n]...)
	walk(func(s, v int32) {
		vals[fill[s]] = v
		fill[s]++
	})
	return at, vals
}

// Circuit returns the netlist the program was compiled from.
func (p *Program) Circuit() *circuit.Circuit { return p.c }

// NumInstrs returns the instruction count (decomposed wide gates emit
// one instruction per two-input fold step).
func (p *Program) NumInstrs() int { return len(p.instrs) }

// NumSlots returns the arena slot count (nodes plus temporaries).
func (p *Program) NumSlots() int { return p.nslots }
