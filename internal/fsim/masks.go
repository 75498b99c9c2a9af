package fsim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// maskChunk is the number of faults a DetectMasks worker pulls at a
// time.
const maskChunk = 512

// DetectMasks grades up to 64 length-1 scan tests at once and returns,
// for each fault, the mask of the tests that detect it: bit k is set
// exactly when DetectTest(tests[k].SI, tests[k].Seq, nil) contains the
// fault.
//
// This is the pattern-parallel pass: slot k of a 1-word kernel batch
// carries test k, the good machine is evaluated once, and each fault is
// propagated event-driven from its site, re-evaluating (through
// sim.BatchEngine.EvalNode) only the nodes whose fanins changed. Under
// random tests a fault's effect dies out within a few gates, so a fault
// costs a few gate evaluations instead of a sweep of the program.
//
// tests must hold 1 to 64 tests, each of length 1; DetectMasks panics
// otherwise, since a misgraded test would corrupt every result. The
// installed order has no effect, and the masks do not depend on the
// worker count.
func (s *Simulator) DetectMasks(tests []scan.Test) []uint64 {
	if len(tests) == 0 || len(tests) > logic.SlotCount {
		panic(fmt.Sprintf("fsim: DetectMasks of %d tests, want 1 to %d", len(tests), logic.SlotCount))
	}
	for k, t := range tests {
		if len(t.Seq) != 1 {
			panic(fmt.Sprintf("fsim: DetectMasks test %d has length %d, want 1", k, len(t.Seq)))
		}
	}
	c := s.c
	used := ^uint64(0) >> (logic.SlotCount - len(tests))
	good := s.goodWords(tests)
	isPO := make([]bool, c.NumNodes())
	for _, n := range c.POs {
		isPO[n] = true
	}
	observed := make([]bool, c.NumNodes())
	for _, i := range s.chain.FFs {
		observed[c.DFFs[i]] = true
	}

	masks := make([]uint64, len(s.faults))
	nchunks := (len(s.faults) + maskChunk - 1) / maskChunk
	var next atomic.Int64
	grade := func() {
		wk := s.acquire()
		defer s.release(wk)
		p := &maskPass{
			c: c, eng: wk.kernel(1), good: good, isPO: isPO, observed: observed,
			mask:    []uint64{used},
			queued:  make([]bool, c.NumNodes()),
			buckets: make([][]int32, c.Depth()+1),
			pending: make([]uint64, c.Depth()/64+1),
		}
		p.eng.Reset()
		for n := range good {
			p.eng.SetNodeVec(n, good[n:n+1])
		}
		for {
			k := int(next.Add(1)) - 1
			if k >= nchunks {
				return
			}
			for fi := k * maskChunk; fi < min((k+1)*maskChunk, len(s.faults)); fi++ {
				masks[fi] = p.grade(s.faults[fi])
			}
		}
	}
	if workers := min(s.Workers(), nchunks); workers <= 1 {
		grade()
	} else {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				grade()
			}()
		}
		wg.Wait()
	}
	s.passes.Add(1)
	s.passVectors.Add(1)
	s.faultSlots.Add(int64(len(s.faults)))
	return masks
}

// goodWords evaluates the good machines of tests, test k in slot k, and
// returns every node's word. Scan-in follows the chain's State rule; PIs
// past the vector's length and the unused slots are X.
func (s *Simulator) goodWords(tests []scan.Test) []logic.Word {
	c := s.c
	wk := s.acquire()
	defer s.release(wk)
	eng := wk.kernel(1)
	eng.Reset()
	good := make([]logic.Word, c.NumNodes())
	load := func(n int, value func(k int) logic.Value) {
		var w logic.Word
		for k := range tests {
			w = w.Set(uint(k), value(k))
		}
		good[n] = w
		eng.SetNodeVec(n, good[n:n+1])
	}
	for i, pi := range c.PIs {
		load(pi, func(k int) logic.Value { return at(tests[k].Seq[0], i) })
	}
	states := make([]logic.Vector, len(tests))
	for k, t := range tests {
		states[k] = s.chain.State(t.SI)
	}
	for i, ff := range c.DFFs {
		load(ff, func(k int) logic.Value { return states[k][i] })
	}
	eng.EvalComb()
	for n := range good {
		good[n] = eng.Val(n)[0]
	}
	return good
}

// at returns v[i], or X past the end of v.
func at(v logic.Vector, i int) logic.Value {
	if i < len(v) {
		return v[i]
	}
	return logic.X
}

// maskPass is one DetectMasks worker's event-driven state. The engine
// holds the good machine between faults: grade changes only the nodes a
// fault reaches and restores them before it returns.
type maskPass struct {
	c        *circuit.Circuit
	eng      *sim.BatchEngine // width 1, slot k = test k
	good     []logic.Word     // per node; shared read-only
	isPO     []bool           // per node; shared read-only
	observed []bool           // per node: a flip-flop compared at scan-out
	mask     []uint64         // the used slots: the injection mask

	f       fault.Fault // the fault being graded
	inj     [1]sim.BatchInjection
	queued  []bool    // per node: waiting in its level's bucket
	buckets [][]int32 // nodes to re-evaluate, by circuit level
	pending []uint64  // bit lv set: buckets[lv] is not empty
	changed []int32   // nodes whose word differs from the good one
	det     uint64    // detecting tests of the current fault
}

// grade returns the mask of the tests that detect f.
func (p *maskPass) grade(f fault.Fault) uint64 {
	c, eng := p.c, p.eng
	p.f = f
	p.inj[0] = f.Injection(p.mask)
	eng.SetInjections(p.inj[:])
	p.det = 0
	site := f.Node
	if c.Nodes[site].Kind != circuit.DFF || f.Pin < 0 {
		// A D-pin fault touches no combinational node; every other
		// fault starts at its site.
		eng.EvalNode(site)
		p.update(site)
	}
	// Circuits run deep (s35932xl: 1,451 levels) and an effect reaches
	// few of them, so the loop jumps from one pending level to the next.
	for lv := p.nextLevel(c.Level(site) + 1); lv >= 0; lv = p.nextLevel(lv + 1) {
		p.pending[lv>>6] &^= 1 << (lv & 63)
		for _, n := range p.buckets[lv] {
			p.queued[n] = false
			eng.EvalNode(int(n))
			p.update(int(n))
		}
		p.buckets[lv] = p.buckets[lv][:0]
	}
	if p.observed[site] {
		p.scanOut(site)
	}
	for _, n := range p.changed {
		eng.SetNodeVec(int(n), p.good[n:n+1])
	}
	p.changed = p.changed[:0]
	return p.det
}

// update compares node n's new word with its good word. A changed node
// is kept for restoring, compared at a PO and at the scan-out of the
// observed flip-flops it drives, and its gate fanouts are queued.
func (p *maskPass) update(n int) {
	c := p.c
	v, g := p.eng.Val(n)[0], p.good[n]
	if v == g {
		return
	}
	p.changed = append(p.changed, int32(n))
	if p.isPO[n] {
		p.det |= logic.DiffDefinite(v, g)
	}
	for _, m := range c.Fanout(n) {
		// Gates sit at level 1 and up. The only level-0 nodes with a
		// fanin, and so in a fanout list, are flip-flops.
		switch lv := c.Level(m); {
		case lv == 0:
			if p.observed[m] {
				p.scanOut(m)
			}
		case !p.queued[m]:
			p.queued[m] = true
			p.buckets[lv] = append(p.buckets[lv], int32(m))
			p.pending[lv>>6] |= 1 << (lv & 63)
		}
	}
}

// nextLevel returns the lowest pending level at or above lv, or -1.
func (p *maskPass) nextLevel(lv int) int {
	for i := lv >> 6; i < len(p.pending); i++ {
		w := p.pending[i]
		if i == lv>>6 {
			w &= ^uint64(0) << (lv & 63)
		}
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// scanOut compares flip-flop ff's next state with its good D word. The
// next state is the D driver's word with the fault's injection on ff
// applied: a D-pin injection and then an output injection, as NextState
// and ClockFF apply them (both force the same stuck value).
func (p *maskPass) scanOut(ff int) {
	d := p.c.Nodes[ff].Fanin[0]
	next := p.eng.Val(d)[0]
	if p.f.Node == ff {
		next = next.Merge(logic.FromValue(p.f.Stuck), p.mask[0])
	}
	p.det |= logic.DiffDefinite(next, p.good[d])
}
