// Package seqgen generates test sequences for sequential circuits
// operating without scan, standing in for the simulation-based sequential
// ATPGs the paper sources its initial sequences from (STRATEGATE [10],
// PROPTEST [12]).
//
// The generator is simulation-based, like those tools: at each time step
// it proposes a small set of candidate input vectors (random vectors,
// single-bit mutations of the previous vector, and a repeat of the
// previous vector), scores each candidate by the number of new fault
// detections it would cause — with good-machine state activity as a tie
// breaker, which drives state traversal the way STRATEGATE's dynamic
// state traversal does — and commits the best one. Generation stops when
// the sequence reaches its length cap, every fault is detected, or no
// detection has happened for a stall window.
//
// Fault machines are tracked incrementally on the compiled kernel
// (sim.BatchEngine) in groups of up to 255 faults, one group per batch
// of the kernel's wide width (sim.WideWidth); slot 0 carries the good
// machine, as in package fsim. A group is loaded onto the kernel
// once per step and then serves every candidate, so one step costs one
// combinational evaluation per group and candidate. Every decision
// counts faults, so the grouping never changes the chosen vectors.
package seqgen

import (
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Search parameters.
const (
	candidates    = 8   // candidate vectors per greedy step
	stallLimit    = 100 // consecutive steps without a detection that end generation
	plateauAfter  = 10  // stalled steps before the segment search takes over
	segmentLen    = 8   // lookahead depth of the segment search
	segmentTrials = 6   // random segments evaluated per plateau step
)

// groupFaults is the number of faulty machines in one group: a group
// runs at the kernel's wide width, slot 0 the good machine.
const groupFaults = 64*sim.WideWidth - 1

// Options configures sequence generation.
type Options struct {
	Seed int64
	// MaxLen caps the sequence length (0 = default 1000).
	MaxLen int
}

// Result is a generated sequence and the faults it detects (at primary
// outputs, starting from the all-X state — the F_0 of the paper).
type Result struct {
	Seq      logic.Sequence
	Detected *fault.Set
}

// group tracks up to groupFaults faulty machines plus the good machine
// in slot 0. Slot s carries fault first+s-1.
type group struct {
	injs  []sim.BatchInjection
	first int
	state []logic.Word          // flip-flop i at state[i*sim.WideWidth : (i+1)*sim.WideWidth]
	live  [sim.WideWidth]uint64 // slots with undetected faults
}

func (g *group) done() bool { return g.live == [sim.WideWidth]uint64{} }

// generator is the simulation state of one Generate call.
type generator struct {
	c      *circuit.Circuit
	eng    *sim.BatchEngine
	groups []*group
	next   []logic.Word // NextState buffer
}

// Generate runs the simulation-based search and returns the sequence.
func Generate(c *circuit.Circuit, faults []fault.Fault, opt Options) *Result {
	maxLen := opt.MaxLen
	if maxLen == 0 {
		maxLen = 1000
	}
	r := rand.New(rand.NewSource(opt.Seed))
	gn := newGenerator(c, faults)
	detected := fault.NewSet(len(faults))

	var seq logic.Sequence
	prev := randomVec(r, c.NumPIs())
	stall := 0
	// commit steps every live group with v and appends it.
	commit := func(v logic.Vector) {
		if gn.commit(v, detected) > 0 {
			stall = 0
		} else {
			stall++
		}
		seq = append(seq, v)
		prev = v
	}

	for len(seq) < maxLen && detected.Count() < len(faults) && stall < stallLimit {
		if stall >= plateauAfter {
			// Plateau: single-step greedy is looping. Search over whole
			// random segments (multi-time-frame lookahead, the mechanism
			// by which simulation-based sequential ATPGs reach faults
			// that need coordinated vector runs) and commit the best.
			for _, v := range gn.bestSegment(r) {
				if len(seq) >= maxLen || stall >= stallLimit {
					break
				}
				commit(v)
			}
			continue
		}
		// Build candidate vectors for the single-step greedy phase.
		cands := make([]logic.Vector, 0, candidates)
		cands = append(cands, prev.Clone())
		if c.NumPIs() > 0 {
			m := prev.Clone()
			i := r.Intn(len(m))
			m[i] = m[i].Not()
			cands = append(cands, m)
		}
		for len(cands) < candidates {
			cands = append(cands, randomVec(r, c.NumPIs()))
		}

		// Score each candidate lexicographically.
		det, lat, act := gn.score(cands)
		best := 0
		for ci := 1; ci < len(cands); ci++ {
			if det[ci] > det[best] ||
				(det[ci] == det[best] && lat[ci] > lat[best]) ||
				(det[ci] == det[best] && lat[ci] == lat[best] && act[ci] > act[best]) {
				best = ci
			}
		}
		commit(cands[best])
	}
	return &Result{Seq: seq, Detected: detected}
}

func newGenerator(c *circuit.Circuit, faults []fault.Fault) *generator {
	nff := c.NumFFs()
	gn := &generator{
		c:    c,
		eng:  sim.NewBatch(sim.Compile(c), sim.WideWidth),
		next: make([]logic.Word, nff*sim.WideWidth),
	}
	for start := 0; start < len(faults); start += groupFaults {
		end := min(start+groupFaults, len(faults))
		g := &group{first: start, state: make([]logic.Word, nff*sim.WideWidth)}
		masks := make([]uint64, (end-start)*sim.WideWidth)
		for fi := start; fi < end; fi++ {
			s := fi - start + 1
			m := masks[(s-1)*sim.WideWidth : s*sim.WideWidth]
			m[s>>6] = 1 << (uint(s) & 63)
			g.live[s>>6] |= m[s>>6]
			g.injs = append(g.injs, faults[fi].Injection(m))
		}
		gn.groups = append(gn.groups, g)
	}
	return gn
}

// loadState copies a group's flip-flop words into the engine. EvalComb
// leaves them as loaded, so one load serves any number of evaluations
// from the same state.
func (gn *generator) loadState(state []logic.Word) {
	for i, ff := range gn.c.DFFs {
		gn.eng.SetNodeVec(ff, state[i*sim.WideWidth:(i+1)*sim.WideWidth])
	}
}

// poDiff returns the slots whose primary outputs differ definitely from
// the good machine's after EvalComb.
func (gn *generator) poDiff() (diff [sim.WideWidth]uint64) {
	for i := range gn.c.POs {
		wv := gn.eng.PO(i)
		g := wv[0].BroadcastSlot(0)
		for k := range diff {
			diff[k] |= logic.DiffDefinite(wv[k], g)
		}
	}
	return diff
}

// score evaluates every candidate against all live groups without
// committing state. The score is lexicographic: new PO detections
// first, then undetected faults whose effect gets latched into a
// flip-flop (propagation progress — the precursor of a future
// detection), then good-machine state activity (drives state
// traversal). The activity is summed over the live groups, which
// scales it by the same group count for every candidate.
func (gn *generator) score(cands []logic.Vector) (det, lat, act [candidates]int) {
	eng := gn.eng
	for _, g := range gn.groups {
		if g.done() {
			continue
		}
		eng.SetInjections(g.injs)
		gn.loadState(g.state)
		for ci, cand := range cands {
			eng.SetPIVector(cand)
			eng.EvalComb()
			diff := gn.poDiff()
			eng.NextState(gn.next)
			var sdiff [sim.WideWidth]uint64
			for i := range gn.c.DFFs {
				wv := gn.next[i*sim.WideWidth : (i+1)*sim.WideWidth]
				gw := wv[0].BroadcastSlot(0)
				for k := range sdiff {
					sdiff[k] |= logic.DiffDefinite(wv[k], gw)
				}
				if nv := wv[0].Get(0); nv.IsBinary() && nv != g.state[i*sim.WideWidth].Get(0) {
					act[ci]++
				}
			}
			for k := range diff {
				d := diff[k] & g.live[k]
				det[ci] += bits.OnesCount64(d)
				lat[ci] += bits.OnesCount64(sdiff[k] & g.live[k] &^ d)
			}
		}
	}
	return det, lat, act
}

// commit advances every live group by one clock with vec, recording
// detections. It returns the number of newly detected faults.
func (gn *generator) commit(vec logic.Vector, detected *fault.Set) int {
	newDet := 0
	eng := gn.eng
	for _, g := range gn.groups {
		if g.done() {
			// Nothing left to detect: the group's state is never read
			// again.
			continue
		}
		eng.SetInjections(g.injs)
		gn.loadState(g.state)
		eng.SetPIVector(vec)
		eng.EvalComb()
		diff := gn.poDiff()
		for k := range diff {
			d := diff[k] & g.live[k]
			for m := d; m != 0; m &= m - 1 {
				detected.Add(g.first + k*64 + bits.TrailingZeros64(m) - 1)
				newDet++
			}
			g.live[k] &^= d
		}
		eng.ClockFF()
		for i := range gn.c.DFFs {
			copy(g.state[i*sim.WideWidth:(i+1)*sim.WideWidth], eng.State(i))
		}
	}
	return newDet
}

// bestSegment evaluates segmentTrials random segments of segmentLen
// vectors from the current state of every live group and returns the one
// with the most detections (ties broken by end-of-segment latched fault
// effects). Group state is not modified.
func (gn *generator) bestSegment(r *rand.Rand) logic.Sequence {
	var segs [segmentTrials]logic.Sequence
	for t := range segs {
		segs[t] = make(logic.Sequence, segmentLen)
		for i := range segs[t] {
			segs[t][i] = randomVec(r, gn.c.NumPIs())
		}
	}
	var det, lat [segmentTrials]int
	eng := gn.eng
	for _, g := range gn.groups {
		if g.done() {
			continue
		}
		eng.SetInjections(g.injs)
		for t, seg := range segs {
			gn.loadState(g.state)
			live := g.live
			for _, v := range seg {
				eng.SetPIVector(v)
				eng.EvalComb()
				diff := gn.poDiff()
				for k := range diff {
					d := diff[k] & live[k]
					det[t] += bits.OnesCount64(d)
					live[k] &^= d
				}
				eng.ClockFF()
			}
			var sdiff [sim.WideWidth]uint64
			for i := range gn.c.DFFs {
				wv := eng.State(i)
				gw := wv[0].BroadcastSlot(0)
				for k := range sdiff {
					sdiff[k] |= logic.DiffDefinite(wv[k], gw)
				}
			}
			for k := range sdiff {
				lat[t] += bits.OnesCount64(sdiff[k] & live[k])
			}
		}
	}
	best := 0
	for t := 1; t < segmentTrials; t++ {
		if det[t] > det[best] || (det[t] == det[best] && lat[t] > lat[best]) {
			best = t
		}
	}
	return segs[best]
}

// Random returns a sequence of length n of uniformly random binary input
// vectors — the paper's "random input sequences of length 1000".
func Random(c *circuit.Circuit, n int, seed int64) logic.Sequence {
	r := rand.New(rand.NewSource(seed))
	seq := make(logic.Sequence, n)
	for i := range seq {
		seq[i] = randomVec(r, c.NumPIs())
	}
	return seq
}

func randomVec(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		v[i] = logic.Value(r.Intn(2))
	}
	return v
}
