// Package scomp implements the static test compaction procedure of
// Pomeranz & Reddy [4] ("Static Test Compaction for Scan-Based Designs
// to Reduce Test Application Time", ATS 1998): repeatedly combine pairs
// of scan tests
//
//	τ_i = (SI_i, T_i), τ_j = (SI_j, T_j)  →  τ_ij = (SI_i, T_i · T_j)
//
// which removes one scan-out/scan-in operation (N_SV clock cycles), and
// accept the combination iff the fault coverage of the whole test set is
// not reduced. The procedure stops when no pair can be combined.
//
// Coverage preservation is checked locally: combining τ_i and τ_j can
// only lose faults whose sole detectors in the current set are τ_i or
// τ_j; the combination is accepted iff one fault simulation shows the
// combined test detects all of them.
//
// The engine keeps a detection ledger (fsim.Ledger): each live test
// carries the Record of its detections, and a combination trial starts
// from the union of the two tests' ledger signatures instead of a cold
// re-grade. The key carry-over: the combined test replays the T_i
// prefix verbatim from the same scan-in state, so every PO detection
// recorded for τ_i persists in τ_ij unchanged — only the risk faults
// without such a detection (scan-out-only, or detected solely by τ_j)
// need simulation, and a trial whose risk set is fully carried commits
// with no simulation at all. Accepted combinations refresh the ledger
// row from the trial's own records, and between rounds the simulation
// order is re-ranked from the live ledger counts (adi.ReorderByCounts).
// The tests check the engine against the rule reduced to its definition
// (ledger_test.go) and against the reference simulator (oracle_test.go).
package scomp

import (
	"math/rand"

	"repro/internal/adi"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Options configures the combining loop.
type Options struct {
	// MaxRounds bounds the number of full passes over all test pairs
	// (0 = no bound; the procedure runs to its natural fixpoint).
	MaxRounds int

	// TransferLen enables the improvement of [7] ("Reducing Test
	// Application Time for Full Scan Circuits by the Addition of
	// Transfer Sequences", ATS 2000): when the direct combination of
	// τ_i and τ_j fails, a transfer sequence X of at most TransferLen
	// functional vectors is synthesized to steer the state reached after
	// T_i toward SI_j, and the combination (SI_i, T_i·X·T_j) is tried
	// instead. Profitable whenever len(X) < N_SV, since the combination
	// removes one scan operation. 0 disables transfer sequences (the
	// plain [4] procedure the paper uses).
	TransferLen int
	// TransferCandidates is the number of candidate vectors evaluated
	// per transfer step (0 = default 8).
	TransferCandidates int
	// Seed drives transfer-candidate generation.
	Seed int64

	// InitialRecords optionally seeds the ledger rows of the input tests
	// (index-aligned with ts.Tests; nil entries are graded normally).
	// Each record must be the exact full-fault-list Record of its test —
	// core passes the τ_seq grading it already paid for.
	InitialRecords []*fsim.Record
}

// Stats describes one compaction run.
type Stats struct {
	Combined         int // accepted pair combinations
	TransferCombined int // combinations accepted only thanks to a transfer sequence
	TransferVectors  int // total transfer vectors inserted
	Attempts         int // candidate trials, transfer retries included
	Rounds           int // full passes over the pair space
	ShortCircuits    int // trials committed without any simulation (risk fully carried by the ledger)
	FaultsSimulated  int // total fault slots across all trial/accept simulations
}

// Add accumulates o into s (used by core to aggregate per-phase stats).
func (s *Stats) Add(o Stats) {
	s.Combined += o.Combined
	s.TransferCombined += o.TransferCombined
	s.TransferVectors += o.TransferVectors
	s.Attempts += o.Attempts
	s.Rounds += o.Rounds
	s.ShortCircuits += o.ShortCircuits
	s.FaultsSimulated += o.FaultsSimulated
}

// Compact runs the procedure of [4] on ts and returns the compacted set.
// The input set is not modified. Faults outside the union coverage of ts
// play no role.
func Compact(s *fsim.Simulator, ts *scan.Set, opt Options) (*scan.Set, Stats) {
	out, _, st := CompactWithLedger(s, ts, opt)
	return out, st
}

// CompactWithLedger is Compact that additionally returns the ledger of
// the output set, row-aligned with the returned tests — each row is the
// exact detection record of its test over the faults the engine
// credited it with (at least the test's contribution to the union
// coverage). core's Phase 4 consults it to
// skip re-grading tests whose detections are already pinned down.
func CompactWithLedger(s *fsim.Simulator, ts *scan.Set, opt Options) (*scan.Set, *fsim.Ledger, Stats) {
	var st Stats
	n := len(ts.Tests)
	nf := s.NumFaults()
	if n <= 1 {
		led := fsim.NewLedger(nf)
		for i, t := range ts.Tests {
			if i < len(opt.InitialRecords) && opt.InitialRecords[i] != nil {
				led.Append(opt.InitialRecords[i].Clone())
			} else {
				led.Append(s.RecordTest(t.SI, t.Seq, nil))
			}
		}
		return ts.Clone(), led, st
	}
	if max := s.Nsv() - 1; opt.TransferLen > max {
		// Longer transfers than N_SV-1 cannot be profitable: the scan
		// operation they replace costs N_SV cycles.
		opt.TransferLen = max
	}
	var r *rand.Rand
	if opt.TransferLen > 0 {
		r = rand.New(rand.NewSource(opt.Seed))
	}

	tests := make([]scan.Test, n)
	led := fsim.NewLedger(nf)
	for i, t := range ts.Tests {
		tests[i] = t.Clone()
		if i < len(opt.InitialRecords) && opt.InitialRecords[i] != nil {
			led.Append(opt.InitialRecords[i].Clone())
		} else {
			led.Append(s.RecordTest(t.SI, t.Seq, nil))
		}
	}
	count := led.Counts()

	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}

	// Fault dropping: a fault can be at risk for some pair only while
	// its detection count is 1 or 2 (count - [τ_i detects] - [τ_j
	// detects] must reach 0). Bucketing those faults once per accepted
	// combination turns the per-pair risk construction into a handful of
	// word operations:
	//
	//	risk = (C1 ∩ (d_i ∪ d_j)) ∪ (C2 ∩ d_i ∩ d_j)
	//
	// Multiply-detected faults drop out of every candidate simulation
	// until combinations remove enough of their detectors.
	c1, c2 := fault.NewSet(nf), fault.NewSet(nf)
	rebuckets := func() {
		c1.Clear()
		c2.Clear()
		for f, cnt := range count {
			switch cnt {
			case 1:
				c1.Add(f)
			case 2:
				c2.Add(f)
			}
		}
	}
	rebuckets()

	// risk: faults whose sole detectors are τ_i or τ_j; mustSim: risk
	// minus the PO detections carried from τ_i's row.
	risk, mustSim, tmp := fault.NewSet(nf), fault.NewSet(nf), fault.NewSet(nf)
	riskOf := func(i, j int) {
		di, dj := led.Row(i).Detected(), led.Row(j).Detected()
		risk.CopyFrom(c2)
		risk.IntersectWith(di)
		risk.IntersectWith(dj)
		tmp.CopyFrom(di)
		tmp.UnionWith(dj)
		tmp.IntersectWith(c1)
		risk.UnionWith(tmp)
	}

	// nextPair returns the first live ordered pair at or after scan
	// position (i0, j0) in row-major order.
	nextPair := func(i0, j0 int) (int, int, bool) {
		for i := i0; i < n; i++ {
			if !alive[i] {
				continue
			}
			j := 0
			if i == i0 {
				j = j0
			}
			for ; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				return i, j, true
			}
		}
		return 0, 0, false
	}

	// accept replaces τ_i with the combination and kills τ_j, refreshing
	// the ledger row: PO detections of the old τ_i carry over verbatim,
	// the trial's must-detect record covers the simulated risk faults,
	// and one targeted pass covers the not-at-risk remainder of the
	// union that the prefix does not already pin down.
	accept := func(i, j int, combined scan.Test, recMust *fsim.Record) {
		rowi := led.Row(i)
		rest := rowi.Detected().Clone()
		rest.UnionWith(led.Row(j).Detected())
		rest.SubtractWith(risk)
		restSim := rest.Clone()
		rest.ForEach(func(f int) {
			if rowi.PODetected(f) {
				restSim.Remove(f)
			}
		})
		st.FaultsSimulated += restSim.Count()
		recRest := s.Record(combined.Seq,
			fsim.Options{Init: combined.SI, ScanOut: true, Targets: restSim})

		newRec := rowi.PrefixCarry(len(combined.Seq))
		if recMust != nil {
			newRec.Merge(recMust)
		}
		newRec.Merge(recRest)
		led.Set(i, newRec)
		led.Drop(j)
		rebuckets()
		tests[i] = combined
		alive[j] = false
		st.Combined++
	}

	// Between rounds, re-rank the installed simulation order from the
	// live ledger counts: result-neutral pass packing (see adi).
	entryOrder := s.Order()
	defer s.SetOrder(entryOrder)

	for {
		st.Rounds++
		if entryOrder != nil && st.Rounds > 1 {
			s.SetOrder(adi.ReorderByCounts(s.Order(), count))
		}
		changed := false
		i, j, ok := nextPair(0, 0)
		for ok {
			riskOf(i, j)
			// Carry-over: the combined test replays the T_i prefix
			// verbatim, so every PO detection in τ_i's row persists —
			// only the remainder of the risk set needs a must-detect
			// simulation.
			rowi := led.Row(i)
			mustSim.CopyFrom(risk)
			risk.ForEach(func(f int) {
				if rowi.PODetected(f) {
					mustSim.Remove(f)
				}
			})
			combined := scan.Test{
				SI:  tests[i].SI.Clone(),
				Seq: append(tests[i].Seq.Clone(), tests[j].Seq.Clone()...),
			}
			st.Attempts++
			var recMust *fsim.Record
			hit := false
			switch {
			case mustSim.Count() == 0:
				// The ledger proves the trial accepted.
				st.ShortCircuits++
				hit = true
			case s.DetectsAll(combined.Seq, fsim.Options{Init: combined.SI, ScanOut: true}, mustSim):
				// The trial check is allocation-free (almost all trials
				// are rejected); re-simulate the must set once, now that
				// the combination commits, to rebuild the ledger row.
				// DetectsAll succeeded on the identical input, so this
				// cannot fail.
				st.FaultsSimulated += 2 * mustSim.Count()
				recMust, _ = s.RecordMust(combined.Seq,
					fsim.Options{Init: combined.SI, ScanOut: true}, mustSim)
				hit = true
			default:
				st.FaultsSimulated += mustSim.Count()
				if opt.TransferLen > 0 {
					// [7]: steer the post-T_i state toward SI_j with a
					// short transfer sequence and retry. The T_i prefix
					// is intact, so the carried PO detections still
					// stand and mustSim is unchanged.
					if xfer := transferSequence(s, tests[i], tests[j].SI, opt, r); xfer != nil {
						withX := scan.Test{
							SI: tests[i].SI.Clone(),
							Seq: append(append(tests[i].Seq.Clone(), xfer...),
								tests[j].Seq.Clone()...),
						}
						st.Attempts++
						st.FaultsSimulated += mustSim.Count()
						if rec2, ok2 := s.RecordMust(withX.Seq,
							fsim.Options{Init: withX.SI, ScanOut: true}, mustSim); ok2 {
							combined = withX
							recMust = rec2
							hit = true
							st.TransferCombined++
							st.TransferVectors += len(xfer)
						}
					}
				}
			}
			// The successor is taken before an accept changes the live
			// set. After an accept at the last live pair there is none
			// (nextPair returns 0, 0), so the scan restarts from the
			// first pair within the same round.
			ti, tj := i, j
			i, j, ok = nextPair(ti, tj+1)
			if hit {
				accept(ti, tj, combined, recMust)
				changed = true
				i, j, ok = nextPair(i, j)
			}
		}
		if !changed {
			break
		}
		if opt.MaxRounds > 0 && st.Rounds >= opt.MaxRounds {
			break
		}
	}

	out := scan.NewSet()
	outLed := fsim.NewLedger(nf)
	for i, t := range tests {
		if alive[i] {
			out.Tests = append(out.Tests, t)
			outLed.Append(led.Row(i))
		}
	}
	return out, outLed, st
}

// transferSequence greedily builds a sequence of at most opt.TransferLen
// vectors that drives the good-machine state reached after applying
// from's test toward the target scan-in state: at each step the
// candidate vector minimizing the Hamming distance of the next state to
// target wins. Returns nil when no progress is possible.
func transferSequence(s *fsim.Simulator, from scan.Test, target logic.Vector, opt Options, r *rand.Rand) logic.Sequence {
	cands := opt.TransferCandidates
	if cands <= 0 {
		cands = 8
	}
	c := s.Circuit()
	eng := sim.New(c)
	eng.SetStateVector(stateForEngine(s, from.SI))
	for _, v := range from.Seq {
		eng.SetPIVector(v)
		eng.Step()
	}

	// Resolve the scanned positions once; distanceToTarget runs per
	// candidate per step and must not rebuild the full-scan chain.
	chain := s.Chain()
	if chain == nil {
		chain = make([]int, c.NumFFs())
		for i := range chain {
			chain[i] = i
		}
	}

	var out logic.Sequence
	cur := distanceToTarget(chain, eng, target)
	for step := 0; step < opt.TransferLen; step++ {
		if cur == 0 {
			break
		}
		var bestVec logic.Vector
		bestDist := cur
		state := eng.StateWords(nil)
		for k := 0; k < cands; k++ {
			v := make(logic.Vector, c.NumPIs())
			for i := range v {
				v[i] = logic.Value(r.Intn(2))
			}
			eng.LoadStateWords(state)
			eng.SetPIVector(v)
			eng.Step()
			if d := distanceToTarget(chain, eng, target); d < bestDist {
				bestDist, bestVec = d, v
			}
		}
		eng.LoadStateWords(state)
		if bestVec == nil {
			break // no candidate makes progress
		}
		eng.SetPIVector(bestVec)
		eng.Step()
		out = append(out, bestVec)
		cur = bestDist
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// stateForEngine expands a scan-in vector (chain-indexed under partial
// scan) into a full flip-flop state vector for a raw engine.
func stateForEngine(s *fsim.Simulator, si logic.Vector) logic.Vector {
	c := s.Circuit()
	full := logic.NewVector(c.NumFFs(), logic.X)
	chain := s.Chain()
	if chain == nil {
		copy(full, si)
		return full
	}
	for k, ff := range chain {
		if k < len(si) {
			full[ff] = si[k]
		}
	}
	return full
}

// distanceToTarget counts the chained flip-flops whose current value
// definitely differs from (or cannot be confirmed equal to) the target
// scan-in value.
func distanceToTarget(chain []int, eng *sim.Engine, target logic.Vector) int {
	d := 0
	for k, ff := range chain {
		want := logic.X
		if k < len(target) {
			want = target[k]
		}
		if !want.IsBinary() {
			continue
		}
		if got := eng.State(ff).Get(0); got != want {
			d++
		}
	}
	return d
}

// InitialFromComb converts a combinational test set (state, PI) pairs
// into the length-1 scan test set that [4] uses as its starting point.
type CombSource interface {
	ScanTest() scan.Test
}

// FromCombTests builds the initial scan test set of [4] from any slice
// of combinational tests.
func FromCombTests[T CombSource](tests []T) *scan.Set {
	out := scan.NewSet()
	for _, t := range tests {
		out.Tests = append(out.Tests, t.ScanTest())
	}
	return out
}
