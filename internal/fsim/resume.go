package fsim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// A compaction trial shares a prefix with the test it edits: omitting
// the vector at p replays every vector before p, and extending a test
// replays the whole test before its new vector. When none of the
// trial's target faults is detected at a primary output within that
// prefix, the prefix only carries each machine to a state, and the
// trial can start from those states instead of the scan-in.
//
// An extension run (RecordExtensions) serves the candidates of one
// extension step: each pass simulates the shared test once, keeps its
// flip-flop words, and runs every candidate vector from them. A
// checkpoint run (RecordCheckpoints) grades a test and keeps, every
// few vectors, the state of each target fault that no primary output
// has detected yet: the good machine's flip-flop values once, and per
// fault the flip-flops where its machine differs from the good one. A
// resumed run (ResumeMustInto) loads each target's state at
// one checkpoint and simulates only the vectors after it. It counts
// positions in the whole test, so its Record merges into a ledger row
// of that test unchanged.
//
// All three keep their packing and sweep every frame. A checkpoint
// run's stored states are found through the pass that holds each
// fault, so it never repacks; a resumed run is a must-detect check,
// which cannot tell a repacked pass from a failed one; an extension
// run's targets have no detection in the shared test, so its passes
// never thin out before the candidates. Event frames start every
// machine at the good state, which a resumed pass does not, and leave
// the flip-flop words stale where no machine diverges, which a saved
// state would copy.

// maxCheckpoints bounds the checkpoints of one checkpoint run: a test
// of L vectors keeps one after every ⌈(L−1)/maxCheckpoints⌉ vectors.
const maxCheckpoints = 64

// Checkpoints holds the states a checkpoint run stored: at positions
// every, 2·every, … (a position counts the vectors applied before it,
// up to the test's last vector), the state of every target fault that
// no primary output detected before the position.
type Checkpoints struct {
	si      logic.Vector // the test's scan-in vector
	scanOut bool
	every   int // vectors between checkpoints; 0: none
	n       int // checkpoints, at positions every·1 … every·n

	mu     sync.Mutex      // guards good, which the first pass to reach a checkpoint writes
	good   [][]logic.Value // per checkpoint: the good machine's flip-flop values
	passOf []int32         // per fault: the pass of the run that holds it, or -1
	passes [][]cpState     // per pass: its states at the checkpoints it reached
}

// cpState is one pass's fault states at one checkpoint: those of its
// faults that no primary output had detected before it.
type cpState struct {
	faults []int32  // ascending
	off    []int32  // faults[i]'s differences are diffs[off[i]:off[i+1]]
	diffs  []uint32 // flip-flop index<<2 | the faulty machine's value there
}

// newCheckpoints returns the empty checkpoints of a run of opt over
// seqLen vectors on a list of nf faults.
func newCheckpoints(nf, seqLen int, opt Options) *Checkpoints {
	cp := &Checkpoints{si: opt.Init, scanOut: opt.ScanOut, passOf: make([]int32, nf)}
	for i := range cp.passOf {
		cp.passOf[i] = -1
	}
	if seqLen > 1 {
		cp.every = (seqLen - 1 + maxCheckpoints - 1) / maxCheckpoints
		cp.n = (seqLen - 1) / cp.every
	}
	cp.good = make([][]logic.Value, cp.n)
	return cp
}

// Before returns the last checkpoint position at or before p, or 0 (the
// scan-in) when there is none.
func (cp *Checkpoints) Before(p int) int {
	if cp.every == 0 {
		return 0
	}
	return min(p/cp.every, cp.n) * cp.every
}

// index returns the checkpoint at position t, or -1 when none is (or
// cp is nil).
func (cp *Checkpoints) index(t int) int {
	if cp == nil || cp.every == 0 || t <= 0 || t%cp.every != 0 || t/cp.every > cp.n {
		return -1
	}
	return t/cp.every - 1
}

// diffsOf returns fault f's differences at checkpoint c, and whether c
// holds f at all.
func (cp *Checkpoints) diffsOf(f, c int) ([]uint32, bool) {
	k := cp.passOf[f]
	if k < 0 || c >= len(cp.passes[k]) {
		return nil, false
	}
	st := &cp.passes[k][c]
	i, ok := slices.BinarySearch(st.faults, int32(f))
	if !ok {
		return nil, false
	}
	return st.diffs[st.off[i]:st.off[i+1]], true
}

// resume returns the spec of a run resumed from position q, a
// checkpoint or 0 (the scan-in), and panics unless cp holds every
// target there.
func (cp *Checkpoints) resume(q int, targets *fault.Set) *runSpec {
	if q == 0 {
		return &runSpec{}
	}
	c := cp.index(q)
	if c < 0 {
		panic(fmt.Sprintf("fsim: position %d is not a checkpoint", q))
	}
	targets.ForEach(func(f int) {
		if _, ok := cp.diffsOf(f, c); !ok {
			panic(fmt.Sprintf("fsim: the checkpoint at position %d does not hold fault %d", q, f))
		}
	})
	return &runSpec{from: cp, at: q}
}

// save stores pass k's states at checkpoint c, the clock that ends
// there just taken: the good machine's flip-flop values, once per run,
// and the differences of every slot of live. mism and cnt are scratch
// of nff·width words and 64·width counts.
func (cp *Checkpoints) save(k, c int, eng *sim.BatchEngine, batch []int, live, mism []uint64, cnt []int32) {
	w := eng.Width()
	nff := eng.Circuit().NumFFs()
	if c == 0 {
		for _, f := range batch {
			cp.passOf[f] = int32(k)
		}
	}
	cp.mu.Lock()
	if cp.good[c] == nil {
		g := make([]logic.Value, nff)
		for i := range g {
			g[i] = eng.State(i)[0].Get(0)
		}
		cp.good[c] = g
	}
	cp.mu.Unlock()

	// Count each live slot's differences, then lay them out slot by
	// slot, in flip-flop order within a slot.
	clear(cnt)
	for i := 0; i < nff; i++ {
		st := eng.State(i)
		g := st[0].BroadcastSlot(0)
		for j, cur := range st {
			m := ((cur.Zero ^ g.Zero) | (cur.One ^ g.One)) & live[j]
			mism[i*w+j] = m
			for ; m != 0; m &= m - 1 {
				cnt[j*64+bits.TrailingZeros64(m)]++
			}
		}
	}
	held := 0
	for _, m := range live {
		held += bits.OnesCount64(m)
	}
	st := cpState{faults: make([]int32, 0, held), off: make([]int32, 0, held+1)}
	var n int32 // the differences laid out so far; cnt[gs] becomes slot gs's start
	for j, m := range live {
		for ; m != 0; m &= m - 1 {
			gs := j*64 + bits.TrailingZeros64(m)
			st.faults = append(st.faults, int32(batch[gs-1]))
			st.off = append(st.off, n)
			n, cnt[gs] = n+cnt[gs], n
		}
	}
	st.off = append(st.off, n)
	st.diffs = make([]uint32, n)
	for i := 0; i < nff; i++ {
		words := eng.State(i)
		for j := range w {
			for m := mism[i*w+j]; m != 0; m &= m - 1 {
				b := bits.TrailingZeros64(m)
				gs := j*64 + b
				st.diffs[cnt[gs]] = uint32(i)<<2 | uint32(words[j].Get(uint(b)))
				cnt[gs]++
			}
		}
	}
	cp.passes[k] = append(cp.passes[k], st)
}

// load sets every flip-flop of eng to checkpoint c's states: the good
// machine in slot 0 and fault batch[i] in slot i+1. buf is scratch of
// nff·width words.
func (cp *Checkpoints) load(eng *sim.BatchEngine, c int, batch []int, buf []logic.Word) {
	w := eng.Width()
	good := cp.good[c]
	for i, v := range good {
		wd := logic.FromValue(v)
		for j := range w {
			buf[i*w+j] = wd
		}
	}
	for bi, f := range batch {
		gs := bi + 1
		d, _ := cp.diffsOf(f, c)
		for _, e := range d {
			x := int(e>>2)*w + gs>>6
			buf[x] = buf[x].Set(uint(gs&63), logic.Value(e&3))
		}
	}
	for i, ff := range eng.Circuit().DFFs {
		eng.SetNodeVec(ff, buf[i*w:(i+1)*w])
	}
}

// extend ends a pass of an extension run: it keeps the flip-flop words
// the shared test left and runs each of spec.tails from them, recording
// tail i's detections among the slots of live into spec.tailRecs[i].
// It returns the number of vectors it ran.
func (wk *worker) extend(eng *sim.BatchEngine, spec *runSpec, batch []int, live, diff []uint64) int {
	c := wk.s.c
	w := eng.Width()
	saved := scratch(&wk.wordBuf, c.NumFFs()*w)
	for i := range c.DFFs {
		copy(saved[i*w:(i+1)*w], eng.State(i))
	}
	t := int32(spec.at + len(spec.seq))
	for ti, vec := range spec.tails {
		if ti > 0 {
			for i, ff := range c.DFFs {
				eng.SetNodeVec(ff, saved[i*w:(i+1)*w])
			}
		}
		rec := spec.tailRecs[ti]
		clear(diff)
		eng.SetPIVector(vec)
		eng.EvalComb()
		for i := range c.POs {
			wv := eng.PO(i)
			observe(diff, wv, wv[0].BroadcastSlot(0))
		}
		for k := range w {
			for m := diff[k] & live[k]; m != 0; m &= m - 1 {
				rec.first[batch[k*64+bits.TrailingZeros64(m)-1]] = t
			}
		}
		eng.ClockFF()
		clear(diff)
		wk.s.scanDiff(eng, false, nil, diff)
		for k := range w {
			for m := diff[k] & live[k]; m != 0; m &= m - 1 {
				if fi := batch[k*64+bits.TrailingZeros64(m)-1]; rec.first[fi] < 0 {
					rec.so[fi] = true
				}
			}
		}
	}
	return len(spec.tails)
}

// scratch returns *buf cut to n elements, grown first when it is
// shorter.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// RecordCheckpoints is Record, and it also returns the states a resumed
// run of the same test starts from. It keeps them every
// ⌈(L−1)/64⌉ vectors of a test of L: at each checkpoint, the good
// machine's flip-flop values and, for every target fault that no
// primary output has detected yet, the flip-flops where its machine
// differs from the good one.
func (s *Simulator) RecordCheckpoints(seq logic.Sequence, opt Options) (*Record, *Checkpoints) {
	r := newRecord(len(s.faults), len(seq))
	cp := newCheckpoints(len(s.faults), len(seq), opt)
	s.run(seq, opt, r.det, &runSpec{rec: r, save: cp})
	return r, cp
}

// ResumeMustInto is RecordMustInto for a run resumed from position q
// of cp, a checkpoint or 0 (the scan-in): it reports whether the test
// of cp, continued from position q with seq (the vectors that now
// follow q), detects every fault in must under cp's scan-out compare,
// and records the detections into buf. A fault's first PO detection
// counts positions from the test's first vector, so on success the
// record equals a full run's over must. The checkpoint must hold every
// fault of must; ResumeMustInto panics otherwise.
func (s *Simulator) ResumeMustInto(buf *Record, cp *Checkpoints, q int, seq logic.Sequence, must *fault.Set) (*Record, bool) {
	if must == nil {
		must = fault.NewSet(len(s.faults))
	}
	spec := cp.resume(q, must)
	return s.recordMust(buf, q+len(seq), seq, Options{Init: cp.si, ScanOut: cp.scanOut}, must, spec)
}

// RecordExtensions returns, for each vector v of vecs, the Record of
// the scan test (si, seq·v) over targets: RecordTest(si, seq·v,
// targets). One run serves every vector. Each pass simulates seq once,
// keeps its flip-flop words, and runs each vector from them. The
// records of bufs are reset and reused, and more are allocated as
// needed (pass nil on the first call); the result aliases them.
func (s *Simulator) RecordExtensions(bufs []*Record, si logic.Vector, seq logic.Sequence, vecs []logic.Vector, targets *fault.Set) []*Record {
	recs := bufs[:0]
	for i := range vecs {
		if i < len(bufs) {
			bufs[i].Reset(len(seq) + 1)
			recs = append(recs, bufs[i])
		} else {
			recs = append(recs, newRecord(len(s.faults), len(seq)+1))
		}
	}
	s.run(seq, Options{Init: si, ScanOut: true, Targets: targets},
		fault.NewSet(len(s.faults)), &runSpec{tails: vecs, tailRecs: recs})
	// Passes on several workers write each fault's entries, never the
	// shared detected sets.
	for _, f := range s.targetIndices(targets) {
		for _, r := range recs {
			if r.first[f] >= 0 || r.so[f] {
				r.det.Add(f)
			}
		}
	}
	return recs
}
