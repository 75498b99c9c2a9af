package fsim

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Scan-in candidates run one sequence from many states, and the
// synthetic circuits synchronize: within a few vectors each run's good
// and faulty machines hold exactly the states of one reference run.
// Between frames a pass's machines are its flip-flop words, and a
// slot's later frames depend only on those words, the broadcast input
// vector and the slot's own injection. A slot whose good and faulty
// words equal the reference's at the same frame so shows the same PO
// values in every later frame and ends in the same state: its verdict
// is the reference's from there on, and it needs no more simulation.
//
// The reference is the first state's run. Its passes sweep every frame
// with no early exit, and keep every flip-flop word after each
// checkpoint frame, with each target fault's last PO-detecting frame and
// its scan-out verdict. The other runs pack the same passes, so the
// reference's slot of a fault is theirs too; at each checkpoint they
// decide the slots that re-joined (runPass). No run with a reference
// repacks, which would change that packing, or takes event frames,
// which leave the flip-flop words stale where no machine diverges.

// reference is the record of the first scan-in run of ScanInScores,
// written by that run and read by the others.
type reference struct {
	build  bool      // the run under way writes the record
	ncp    int       // checkpoints: after frames 1, 2, 4, … short of the last
	passes []refPass // per pass of the run
}

// refPass is the reference record of one pass.
type refPass struct {
	// states holds the pass's flip-flop words after each checkpoint:
	// checkpoint c, flip-flop i at states[(c*nff+i)*width:][:width].
	states []logic.Word
	last   []int32  // per fault of the batch: the last frame a PO detects it, or -1
	so     []uint64 // the slots the final scan-out compare detects
}

// newReference returns an empty reference for runs over seqLen vectors.
// Checkpoints follow the 1st, 2nd, 4th, 8th, … vector while short of
// the last, so the record holds ⌈log₂ seqLen⌉ states per pass.
func newReference(seqLen int) *reference {
	return &reference{build: true, ncp: bits.Len(uint(max(seqLen-1, 0)))}
}

// checkpoint returns the index of the checkpoint that follows frame u
// (0-based), or -1 when none does.
func (r *reference) checkpoint(u int) int {
	n := uint(u + 1)
	if n&(n-1) != 0 {
		return -1
	}
	if c := bits.TrailingZeros(n); c < r.ncp {
		return c
	}
	return -1
}

// start sizes a reference pass for a batch of n faults on eng's
// circuit, at its width.
func (rp *refPass) start(eng *sim.BatchEngine, ncp, n int) {
	w := eng.Width()
	rp.states = make([]logic.Word, ncp*eng.Circuit().NumFFs()*w)
	rp.last = make([]int32, n)
	for i := range rp.last {
		rp.last[i] = -1
	}
	rp.so = make([]uint64, w)
}

// notePO records frame u as the last PO detection of each batch slot
// in diff.
func (rp *refPass) notePO(diff, batchMask []uint64, u int) {
	for k, d := range diff {
		for m := d & batchMask[k]; m != 0; m &= m - 1 {
			rp.last[k*64+bits.TrailingZeros64(m)-1] = int32(u)
		}
	}
}

// save keeps every flip-flop word of eng as checkpoint c's, unscanned
// flip-flops and the X rail included: each is part of the machine.
func (rp *refPass) save(eng *sim.BatchEngine, c int) {
	w := eng.Width()
	nff := eng.Circuit().NumFFs()
	dst := rp.states[c*nff*w:]
	for i := 0; i < nff; i++ {
		copy(dst[i*w:(i+1)*w], eng.State(i))
	}
}

// rejoin decides, at checkpoint c after frame u, every slot of
// batchMask not yet in done whose flip-flop words equal the reference
// pass's, provided the good machine's (slot 0) do too. Such a slot is
// detected iff the reference detects its fault at a PO after frame u
// or at scan-out; either way it joins done, and its detection joins
// detected. mism is scratch of the batch width.
func (rp *refPass) rejoin(eng *sim.BatchEngine, c, u int, batch []int, batchMask, done, mism []uint64, detected *fault.Set) {
	w := eng.Width()
	nff := eng.Circuit().NumFFs()
	ref := rp.states[c*nff*w:]
	clear(mism)
	for i := 0; i < nff; i++ {
		for k, cur := range eng.State(i) {
			r := ref[i*w+k]
			mism[k] |= (cur.Zero ^ r.Zero) | (cur.One ^ r.One)
		}
	}
	if mism[0]&1 != 0 {
		return // the good machines differ: no slot can re-join
	}
	for k := range w {
		joined := batchMask[k] &^ done[k] &^ mism[k]
		for m := joined; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if bi := k*64 + b - 1; rp.last[bi] > int32(u) || rp.so[k]&(1<<b) != 0 {
				detected.Add(batch[bi])
			}
		}
		done[k] |= joined
	}
}

// ScanInScores returns, for each scan-in state, the number of target
// faults the scan test (state, seq) detects: exactly
// DetectTest(states[i], seq, targets).Count(). It is Phase 1 Step 2's
// candidate scoring. The first state's run is the reference, and every
// other run stops simulating a fault once its good and faulty machines
// re-join the reference's (see above). Passes shard over the workers as
// in Detect.
func (s *Simulator) ScanInScores(seq logic.Sequence, states []logic.Vector, targets *fault.Set) []int {
	scores := make([]int, len(states))
	ref := newReference(len(seq))
	for i, st := range states {
		det := fault.NewSet(len(s.faults))
		s.run(seq, Options{Init: st, ScanOut: true, Targets: targets}, det, &runSpec{ref: ref})
		scores[i] = det.Count()
		ref.build = false
	}
	return scores
}
