package sim

import (
	"math/bits"

	"repro/internal/logic"
)

// This file runs the event frames of a sequential fault-simulation pass
// (differential fault simulation). A pass packs many faulty machines
// into one batch, but most of the instruction stream sees the same
// value in every slot: the good machine's. The caller simulates the
// good machine once per input sequence and hands each frame its row of
// that trace, one scalar value per arena slot. An event frame then
// executes only the instructions with an operand that diverges from
// the row, and writes the arena only where it diverges:
//
//   - a slot holds this frame's words only when its stamp is the
//     current epoch. An operand without one is filled from the row the
//     first time it is read, because no divergence reached it;
//   - an instruction whose result differs from the row marks its slot
//     diverged and schedules its readers in a pending bitset. The
//     stream is topological and readers come later in it, so one
//     forward scan of the bitset runs every scheduled instruction;
//   - the seeds of a frame are the readers of the flip-flops that
//     diverged at the last clock, the injected sources (forced on the
//     row's value) and the final instruction of every injected gate;
//   - the clock latches only the flip-flops whose D driver diverged or
//     that carry an injection; the others keep the good next state;
//   - DropSlots ends the faulty machines whose result is decided: their
//     injections stop applying and their flip-flops take the good next
//     state, so from then on those slots are the good machine and
//     diverge nowhere.
//
// Results are bit-identical to Step's, slot for slot, wherever a slot
// diverges; everywhere else the arena is stale and the row is the value.

// eventShare: an event frame that executes more than 1/eventShare of
// the program costs more than a sweep would (DESIGN.md §8).
const eventShare = 8

// EventLimit returns the most instructions an event frame should
// execute: past it, sweeping the whole program is the cheaper frame.
// Callers that choose between the two kinds of frame decide with it.
func (p *Program) EventLimit() int { return len(p.instrs) / eventShare }

// broadcast maps a scalar value to the word carrying it in every slot
// (Z reads as X, as FromValue has it).
var broadcast = [4]logic.Word{logic.AllZero, logic.AllOne, logic.AllX, logic.AllX}

// events is a BatchEngine's event-frame state, allocated by the first
// StartEvents.
type events struct {
	good  []logic.Value // the current frame's row, per slot
	epoch uint32        // the current frame's stamp
	stamp []uint32      // per slot: the arena holds this frame's words when == epoch
	div   []uint32      // per slot: the words diverge from the row when == epoch

	pending  []uint64 // scheduled instructions, one bit each
	lo       int      // no pending word below this index
	executed int      // instructions executed in the current frame

	gates    []int32      // final instruction of every injected gate
	ffs      []int32      // flip-flops (by index) carrying an injection
	latch    []int32      // flip-flops whose D driver diverged in this frame
	cands    []int32      // clock candidates: latch, then ffs
	next     []logic.Word // the candidates' next states, one slot each
	diverged []int32      // flip-flops whose state diverged at the last clock
}

// StartEvents begins a pass of event frames over the installed
// injections (call it after SetInjections, instead of loading a state):
// the flip-flops start at the good machine's state, which the first
// frame's row holds, and nothing has diverged yet. It returns the
// number of injected gates, whose final instructions every frame
// executes: a pass whose seeds alone exceed the EventLimit is better
// swept from the start.
func (e *BatchEngine) StartEvents() int {
	p := e.p
	if e.ev == nil {
		e.ev = &events{
			stamp:   make([]uint32, p.nslots),
			div:     make([]uint32, p.nslots),
			pending: make([]uint64, (len(p.instrs)+63)/64),
		}
	}
	ev := e.ev
	if ev.epoch >= 1<<31 {
		clear(ev.stamp)
		clear(ev.div)
		ev.epoch = 0
	}
	// The last clock stamped epoch+1; the first frame moves one past it.
	ev.epoch++
	ev.lo = len(ev.pending)
	ev.latch = ev.latch[:0]
	ev.diverged = ev.diverged[:0]
	ev.gates = ev.gates[:0]
	ev.ffs = ev.ffs[:0]
	for _, n := range e.touched {
		if f := p.final[n]; f >= 0 {
			ev.gates = append(ev.gates, f)
		} else if i := p.ffIdx[n]; i >= 0 {
			ev.ffs = append(ev.ffs, i)
		}
	}
	return len(ev.gates)
}

// EventFrame evaluates one frame of the pass event-driven. good is the
// frame's row of the good-machine trace: the value of every arena slot
// (NumSlots of them) when the good machine evaluates this frame's
// input vector. The PIs are not written: they diverge only where an
// injection forces them. It returns the number of instructions
// executed.
func (e *BatchEngine) EventFrame(good []logic.Value) int {
	ev := e.ev
	ev.good = good
	ev.epoch++
	ev.executed = 0
	for _, i := range ev.diverged {
		// Latched with this frame's stamp by the last clock.
		e.schedule(e.c.DFFs[i])
	}
	for _, n := range e.srcInj {
		e.ready(n)
		e.applyOut(n)
		if ev.div[n] != ev.epoch && e.differs(n) {
			ev.div[n] = ev.epoch
			e.schedule(n)
		}
	}
	for _, i := range ev.gates {
		ev.pend(int(i))
	}
	e.runPending()
	return ev.executed
}

// Diverged reports whether slot n diverged from the row in the current
// frame. Only a diverged slot's words (Val, PO) are current; any other
// slot carries the row's value in every slot of the batch.
func (e *BatchEngine) Diverged(n int) bool { return e.ev.div[n] == e.ev.epoch }

// EventClock latches the current event frame, as ClockFF latches a
// swept one, for the flip-flops whose next state can diverge: those
// whose D driver diverged and those carrying an injection. Every
// candidate's next state is read before any is written, since a D
// driver can be another flip-flop. A latched state that diverges from
// the good next state (the row's value of the D driver) is written and
// listed in DivergedFFs; the other flip-flops keep the good next state.
func (e *BatchEngine) EventClock() {
	ev, c, w := e.ev, e.c, e.w
	ev.cands = append(append(ev.cands[:0], ev.latch...), ev.ffs...)
	ev.latch = ev.latch[:0]
	if need := len(ev.cands) * w; cap(ev.next) < need {
		ev.next = make([]logic.Word, need)
	} else {
		ev.next = ev.next[:need]
	}
	for k, i := range ev.cands {
		ff := c.DFFs[i]
		d := c.Nodes[ff].Fanin[0]
		e.ready(d)
		nv := ev.next[k*w : (k+1)*w : (k+1)*w]
		copy(nv, e.slot(d))
		if e.flags[ff] != 0 {
			apply(nv, e.forced(ff, 0))
			apply(nv, e.forced(ff, -1))
		}
	}
	ev.diverged = ev.diverged[:0]
	for k, i := range ev.cands {
		ff := c.DFFs[i]
		nv := ev.next[k*w : (k+1)*w : (k+1)*w]
		g := broadcast[ev.good[c.Nodes[ff].Fanin[0]]]
		for _, x := range nv {
			if x != g {
				copy(e.slot(ff), nv)
				ev.stamp[ff] = ev.epoch + 1
				ev.div[ff] = ev.epoch + 1
				ev.diverged = append(ev.diverged, i)
				break
			}
		}
	}
}

// DivergedFFs returns the flip-flops (by index) whose state diverged
// from the good machine's at the last EventClock. Their words (State)
// are current; every other flip-flop holds the good next state. The
// slice is owned by the engine and valid until the next EventClock.
func (e *BatchEngine) DivergedFFs() []int32 { return e.ev.diverged }

// DropSlots ends the faulty machines in the slots mask selects (one
// word per batch word), after an EventClock: the slots leave every
// installed force, and every diverged flip-flop takes the good next
// state in those slots. From then on they are the good machine. A word
// no pin force covers any more is not re-folded again, and a flip-flop
// whose words all equal the good next state leaves DivergedFFs, so the
// next frame reads it from the row. The other slots keep their words
// bit for bit. A caller drops a fault once its result is decided, for
// example detected: it must not read the dropped slots again.
func (e *BatchEngine) DropSlots(mask []uint64) {
	w := e.w
	for _, n := range e.touched {
		fs := e.forcesOf(n)
		e.flags[n] &= flagOut | flagPin
		for k := range fs {
			i := k % w
			if i < len(mask) {
				fs[k].mask &^= mask[i]
			}
			if k >= w && fs[k].mask != 0 {
				e.flags[n] |= pinWord << i
			}
		}
	}
	ev, c := e.ev, e.c
	kept := ev.diverged[:0]
	for _, i := range ev.diverged {
		ff := c.DFFs[i]
		g := broadcast[ev.good[c.Nodes[ff].Fanin[0]]]
		wv, good := e.slot(ff), true
		for k := range wv {
			if k < len(mask) {
				wv[k] = wv[k].Merge(g, mask[k])
			}
			good = good && wv[k] == g
		}
		if good {
			// No live epoch is 0: the next frame fills it from the row.
			ev.stamp[ff], ev.div[ff] = 0, 0
		} else {
			kept = append(kept, i)
		}
	}
	ev.diverged = kept
}

// EndEvents ends the event frames of a pass after an EventClock: it
// writes the good next state into every flip-flop that did not
// diverge, so the arena holds the whole machine state and the pass can
// go on with swept frames (SetPIVector, EvalComb, ClockFF).
func (e *BatchEngine) EndEvents() {
	ev, c := e.ev, e.c
	for _, ff := range c.DFFs {
		if ev.stamp[ff] != ev.epoch+1 {
			e.slot(ff).Fill(broadcast[ev.good[c.Nodes[ff].Fanin[0]]])
		}
	}
}

// Row writes the value slot 0 carries in every arena slot into dst
// (NumSlots values): one row of a good-machine trace when the engine
// runs uninjected.
func (e *BatchEngine) Row(dst []logic.Value) {
	w := e.w
	for s := range dst[:e.p.nslots] {
		x := e.vals[s*w]
		// Zero → 0, One → 1, neither → X (2).
		dst[s] = logic.Value(2 - 2*(x.Zero&1) - x.One&1)
	}
}

// pend schedules instruction i.
func (ev *events) pend(i int) {
	ev.pending[i>>6] |= 1 << (uint(i) & 63)
	ev.lo = min(ev.lo, i>>6)
}

// ready makes slot n current: a slot no divergence reached this frame
// carries the row's value.
func (e *BatchEngine) ready(n int) {
	if ev := e.ev; ev.stamp[n] != ev.epoch {
		e.slot(n).Fill(broadcast[ev.good[n]])
		ev.stamp[n] = ev.epoch
	}
}

// readyFanins makes every fanin of gate n current.
func (e *BatchEngine) readyFanins(n int) {
	for _, f := range e.c.Nodes[n].Fanin {
		e.ready(f)
	}
}

// differs reports whether slot n's words differ from the row's value.
func (e *BatchEngine) differs(n int) bool {
	g := broadcast[e.ev.good[n]]
	for _, x := range e.slot(n) {
		if x != g {
			return true
		}
	}
	return false
}

// schedule follows a diverged slot to its readers and, when it drives
// D pins, to the clock.
func (e *BatchEngine) schedule(n int) {
	p, ev := e.p, e.ev
	for _, i := range p.readers[p.readerAt[n]:p.readerAt[n+1]] {
		ev.pend(int(i))
	}
	e.latch(n)
}

// latch makes the flip-flops whose D pin slot n drives clock candidates.
// Injected flip-flops are candidates anyway.
func (e *BatchEngine) latch(n int) {
	p, ev := e.p, e.ev
	for _, i := range p.latchers[p.latchAt[n]:p.latchAt[n+1]] {
		if e.flags[e.c.DFFs[i]] == 0 {
			ev.latch = append(ev.latch, i)
		}
	}
}

// runPending executes the scheduled instructions in stream order. An
// instruction's operands are made current first; a pin-injected gate
// re-folds from all its fanins, so it needs them all. A result that
// diverges schedules its readers, which lie further down the stream:
// the scan picks them up as it reaches them.
func (e *BatchEngine) runPending() {
	ev, p := e.ev, e.p
	pend, instrs, flags := ev.pending, p.instrs, e.flags
	stamp, div, epoch := ev.stamp, ev.div, ev.epoch
	exec := e.exec1
	if e.w == WideWidth {
		exec = e.exec4
	}
	for wi := ev.lo; wi < len(pend); wi++ {
		for pend[wi] != 0 {
			i := wi<<6 | bits.TrailingZeros64(pend[wi])
			pend[wi] &= pend[wi] - 1
			ins := &instrs[i]
			d := ins.dst
			e.ready(int(ins.a))
			if ins.op > opNot {
				e.ready(int(ins.b))
			}
			if flags[d]&flagPin != 0 {
				e.readyFanins(int(d))
			}
			exec(instrs[i : i+1])
			ev.executed++
			stamp[d] = epoch
			if e.differs(int(d)) {
				div[d] = epoch
				for _, r := range p.readers[p.readerAt[d]:p.readerAt[d+1]] {
					pend[r>>6] |= 1 << (uint(r) & 63)
				}
				if p.latchAt[d] != p.latchAt[d+1] {
					e.latch(int(d))
				}
			}
		}
	}
	ev.lo = len(pend)
}
