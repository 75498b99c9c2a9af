// Package tfault implements the transition (gate-delay) fault model used
// to quantify the paper's at-speed claim: scan tests only exercise a
// circuit at speed during consecutive functional cycles, so test sets
// with longer primary-input sequences screen more delay defects.
//
// A slow-to-rise (slow-to-fall) fault at a line is detected by a pair of
// consecutive at-speed cycles (u-1, u) such that
//
//   - the good machine launches the transition: the line carries 0 (1)
//     in cycle u-1 and 1 (0) in cycle u, and
//   - the late value is observable: the corresponding stuck-at fault at
//     the old value is detected in cycle u — at a primary output, or at
//     scan-out when u is the test's final cycle (the captured flip-flop
//     values are shifted out and compared).
//
// This is the standard single-capture-frame approximation. Scan shift
// cycles are not at speed, so a test whose sequence has length 1 can
// detect no transition fault at all — which is exactly why the paper's
// long-sequence test sets are better delay screens than the length-1
// dominated sets of the prior static compaction flow.
//
// Grading runs on the compiled batch kernel (sim.Compile and
// sim.BatchEngine). The good machine runs on it at width 1, one
// evaluation per cycle, and keeps the trace rows of the previous and
// the current cycle: one value per arena slot. The rows decide which
// faults each cycle launches. Cycle u is then re-evaluated as capture
// frames: each frame starts from the good machine's pre-cycle state and
// holds up to 256 launched faults at their old values, one fault per
// slot, at the width the kernel's rule picks for them (sim.WidthFor).
// No slot carries the good machine; every observed word is compared
// against the row's value in cycle u.
//
// A capture frame runs in one of two ways. An event frame
// (sim.BatchEngine.EventFrame on row u) executes only the instructions
// a launched fault's effect reaches and compares only the POs and D
// drivers that diverged from the row. A swept frame loads the
// pre-cycle state from the row and runs the whole program. A frame
// with more launched faults than the program's event limit
// (sim.Program.EventLimit) sweeps, since its seeds alone would exceed
// the limit. Both kinds detect the same faults.
package tfault

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Fault is a transition fault on a node's output: slow-to-rise when Rise
// is true, slow-to-fall otherwise.
type Fault struct {
	Node int
	Rise bool
}

// String renders the fault with the circuit's node names.
func (f Fault) String(c *circuit.Circuit) string {
	kind := "slow-to-fall"
	if f.Rise {
		kind = "slow-to-rise"
	}
	return c.Nodes[f.Node].Name + " " + kind
}

// Universe enumerates the transition faults of c: two per gate, input
// and flip-flop output (constants excluded, as for stuck-at faults).
func Universe(c *circuit.Circuit) []Fault {
	var out []Fault
	for n := range c.Nodes {
		switch c.Nodes[n].Kind {
		case circuit.Const0, circuit.Const1:
			continue
		}
		out = append(out, Fault{Node: n, Rise: true}, Fault{Node: n, Rise: false})
	}
	return out
}

// frameForce overrides the capture-frame rule (tests only, see
// export_test.go).
type frameForce uint8

const (
	byLimit     frameForce = iota // the event limit decides
	sweepFrames                   // every capture frame sweeps
	eventFrames                   // every capture frame is an event frame
)

// Simulator grades scan tests against a transition fault list. The good
// machine and the capture frames both run on the compiled batch kernel.
// Not safe for concurrent use.
type Simulator struct {
	c      *circuit.Circuit
	faults []Fault
	good   *sim.BatchEngine // width 1: the good machine
	eng    *sim.BatchEngine // capture frames, up to sim.WideWidth wide
	limit  int              // launched faults past which a capture frame sweeps
	force  frameForce
	chain  *scan.Chain // what a scan-in loads; observed follows its flip-flops

	// observed lists the D-input nodes of the flip-flops a scan-out
	// compares: what each one captures at the test's final cycle.
	observed []int

	// byNode[n] lists fault indices on node n (at most 2).
	byNode [][]int

	// The good machine's trace rows of the previous and the current
	// cycle: the value of every arena slot, node n at slot n.
	prev, curv []logic.Value

	// Per-frame buffers, reused across frames and tests.
	launched []int
	masks    []uint64 // one frame-width mask per launched fault
	injs     []sim.BatchInjection
	diff     []uint64 // per-word detection mask of the frame
}

// New returns a full-scan transition-fault simulator.
func New(c *circuit.Circuit, faults []Fault) *Simulator {
	return NewChain(c, faults, nil)
}

// NewChain returns a simulator whose scan operations follow ch: the
// scan-in loads chain positions and the scan-out observes only the
// chain's flip-flops. A nil chain means full scan (scan.Full).
func NewChain(c *circuit.Circuit, faults []Fault, ch *scan.Chain) *Simulator {
	p := sim.Compile(c)
	s := &Simulator{
		c:      c,
		faults: faults,
		chain:  scan.OrFull(ch, c.NumFFs()),
		good:   sim.NewBatch(p, 1),
		eng:    sim.NewBatch(p, sim.WideWidth),
		limit:  p.EventLimit(),
		byNode: make([][]int, c.NumNodes()),
		prev:   make([]logic.Value, p.NumSlots()),
		curv:   make([]logic.Value, p.NumSlots()),
		masks:  make([]uint64, 64*sim.WideWidth*sim.WideWidth),
		diff:   make([]uint64, sim.WideWidth),
	}
	for _, i := range s.chain.FFs {
		s.observed = append(s.observed, c.Nodes[c.DFFs[i]].Fanin[0])
	}
	for i, f := range faults {
		s.byNode[f.Node] = append(s.byNode[f.Node], i)
	}
	return s
}

// NumFaults returns the transition fault universe size.
func (s *Simulator) NumFaults() int { return len(s.faults) }

// DetectTest returns the transition faults the scan test (si, seq)
// detects. si is indexed by chain position under partial scan.
func (s *Simulator) DetectTest(si logic.Vector, seq logic.Sequence, targets *fault.Set) *fault.Set {
	detected := fault.NewSet(len(s.faults))
	if len(seq) < 2 {
		return detected // no consecutive at-speed cycle pair
	}
	s.good.Reset()
	s.good.SetStateVector(s.chain.State(si))
	s.cycle(seq[0], s.prev)

	for u := 1; u < len(seq); u++ {
		s.good.ClockFF()
		s.cycle(seq[u], s.curv)

		// Collect the faults the good machine launches in this cycle.
		launched := s.launched[:0]
		for n := range s.byNode {
			if len(s.byNode[n]) == 0 {
				continue
			}
			pv, cv := s.prev[n], s.curv[n]
			if !pv.IsBinary() || !cv.IsBinary() || pv == cv {
				continue
			}
			for _, fi := range s.byNode[n] {
				if detected.Has(fi) {
					continue
				}
				if targets != nil && !targets.Has(fi) {
					continue
				}
				f := s.faults[fi]
				// Rising launch excites slow-to-rise; falling excites
				// slow-to-fall.
				if (cv == logic.One) == f.Rise {
					launched = append(launched, fi)
				}
			}
		}
		s.launched = launched
		for start := 0; start < len(launched); start += 64 * sim.WideWidth {
			end := min(start+64*sim.WideWidth, len(launched))
			s.captureFrame(launched[start:end], seq[u], u == len(seq)-1, detected)
		}
		s.prev, s.curv = s.curv, s.prev
	}
	return detected
}

// DetectSet grades a whole scan test set with fault dropping across
// tests and returns the union coverage.
func (s *Simulator) DetectSet(ts *scan.Set) *fault.Set {
	detected := fault.NewSet(len(s.faults))
	remaining := fault.NewSet(len(s.faults))
	for i := range s.faults {
		remaining.Add(i)
	}
	for _, t := range ts.Tests {
		if remaining.Count() == 0 {
			break
		}
		got := s.DetectTest(t.SI, t.Seq, remaining)
		detected.UnionWith(got)
		remaining.SubtractWith(got)
	}
	return detected
}

// cycle evaluates the good machine's current cycle on the PI vector pi
// and writes its trace row into row.
func (s *Simulator) cycle(pi logic.Vector, row []logic.Value) {
	s.good.SetPIVector(pi)
	s.good.EvalComb()
	s.good.Row(row)
}

// captureFrame evaluates one capture cycle for up to 64*sim.WideWidth
// launched faults, one per kernel slot: each behaves as a stuck-at-(old
// value) fault for this one frame, starting from the good machine's
// pre-cycle state. No slot carries the good machine; every output is
// compared against the cycle's row, s.curv. An event frame compares
// only the outputs that diverged from the row.
func (s *Simulator) captureFrame(batch []int, pi logic.Vector, last bool, detected *fault.Set) {
	w := sim.WidthFor(len(batch))
	if s.eng.Width() != w {
		s.eng.SetWidth(w)
	}
	masks := s.masks[:len(batch)*w]
	clear(masks)
	s.injs = s.injs[:0]
	for bi, fi := range batch {
		m := masks[bi*w : (bi+1)*w]
		m[bi>>6] = 1 << (uint(bi) & 63)
		n := s.faults[fi].Node
		// The late line still carries its old value, prev[n].
		s.injs = append(s.injs, sim.BatchInjection{Node: n, Pin: -1, Stuck: s.prev[n], Mask: m})
	}
	s.eng.SetInjections(s.injs)
	events := s.force == eventFrames || s.force == byLimit && len(batch) <= s.limit
	if events {
		// The flip-flops start at the good pre-cycle state, which the
		// row holds.
		s.eng.StartEvents()
		s.eng.EventFrame(s.curv)
	} else {
		for i, ff := range s.c.DFFs {
			s.eng.SetStateValue(i, s.curv[ff]) // the good pre-cycle state
		}
		s.eng.SetPIVector(pi)
		s.eng.EvalComb()
	}

	diff := s.diff[:w]
	clear(diff)
	for _, n := range s.c.POs {
		s.compare(diff, n, events)
	}
	if last {
		for _, n := range s.observed {
			s.compare(diff, n, events)
		}
	}
	for k, d := range diff {
		for ; d != 0; d &= d - 1 {
			detected.Add(batch[k*64+bits.TrailingZeros64(d)])
		}
	}
}

// compare ORs into diff the slots whose value of node n definitely
// differs from the good machine's. After an event frame a node that did
// not diverge carries the row's value in every slot.
func (s *Simulator) compare(diff []uint64, n int, events bool) {
	if events && !s.eng.Diverged(n) {
		return
	}
	g := logic.FromValue(s.curv[n])
	for k, v := range s.eng.Val(n) {
		diff[k] |= logic.DiffDefinite(v, g)
	}
}
