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
// row from the trial's own records.
// The tests check the engine against the rule reduced to its definition
// (ledger_test.go) and against the reference simulator (oracle_test.go).
package scomp

import (
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
)

// Options configures the combining loop. The zero value runs the plain
// procedure of [4], the one the paper uses in Phase 4.
type Options struct {
	// InitialRecords optionally seeds the ledger rows of the input tests
	// (index-aligned with ts.Tests; nil entries are graded normally).
	// Each record must be the exact full-fault-list Record of its test —
	// core passes the τ_seq grading it already paid for.
	InitialRecords []*fsim.Record
}

// Stats describes one compaction run.
type Stats struct {
	Combined        int // accepted pair combinations
	Attempts        int // candidate trials
	Rounds          int // full passes over the pair space
	ShortCircuits   int // trials committed without any simulation (risk fully carried by the ledger)
	FaultsSimulated int // total fault slots across all trial/accept simulations
}

// Add accumulates o into s (used by core to aggregate per-phase stats).
func (s *Stats) Add(o Stats) {
	s.Combined += o.Combined
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
	// position (i0, j0) in row-major order. A test is live while its
	// ledger row is; accept drops τ_j's.
	nextPair := func(i0, j0 int) (int, int, bool) {
		for i := i0; i < n; i++ {
			if led.Row(i) == nil {
				continue
			}
			j := 0
			if i == i0 {
				j = j0
			}
			for ; j < n; j++ {
				if i == j || led.Row(j) == nil {
					continue
				}
				return i, j, true
			}
		}
		return 0, 0, false
	}

	// accept replaces τ_i with the combination, seq (T_i·T_j), and kills
	// τ_j, refreshing the ledger row: PO detections of the old τ_i carry
	// over verbatim, the trial's must-detect record (nil for a short
	// circuit) covers the simulated risk faults, and one targeted pass
	// covers the not-at-risk remainder of the union that the prefix does
	// not already pin down. The new test is the combination's one copy.
	accept := func(i, j int, seq logic.Sequence, recMust *fsim.Record) {
		combined := scan.Test{SI: tests[i].SI.Clone(), Seq: seq.Clone()}
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
		st.Combined++
	}

	// buf is the trial record, reused across trials so that a trial
	// allocates nothing. An accept merges it into the new ledger row
	// (Merge copies), so the must set is simulated once per trial.
	// trial is the combined sequence T_i·T_j of the current pair, built
	// in place from the two tests' vectors, which no trial modifies.
	var buf *fsim.Record
	var trial logic.Sequence

	for {
		st.Rounds++
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
			trial = append(append(trial[:0], tests[i].Seq...), tests[j].Seq...)
			st.Attempts++
			var recMust *fsim.Record
			hit := mustSim.Count() == 0
			if hit {
				// The ledger proves the trial accepted.
				st.ShortCircuits++
			} else {
				st.FaultsSimulated += mustSim.Count()
				buf, hit = s.RecordMustInto(buf, trial,
					fsim.Options{Init: tests[i].SI, ScanOut: true}, mustSim)
				recMust = buf
			}
			// The successor is taken before an accept changes the live
			// set. After an accept at the last live pair there is none,
			// and the round ends.
			ti, tj := i, j
			i, j, ok = nextPair(ti, tj+1)
			if hit {
				accept(ti, tj, trial, recMust)
				changed = true
				if ok {
					i, j, ok = nextPair(i, j)
				}
			}
		}
		if !changed {
			break
		}
	}

	out := scan.NewSet()
	outLed := fsim.NewLedger(nf)
	for i, t := range tests {
		if row := led.Row(i); row != nil {
			out.Tests = append(out.Tests, t)
			outLed.Append(row)
		}
	}
	return out, outLed, st
}

// CombSource is a combinational test, a (state, PI) pair, that converts
// into the length-1 scan test [4] starts from.
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
