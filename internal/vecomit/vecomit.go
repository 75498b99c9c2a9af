// Package vecomit implements static compaction of test sequences by
// vector omission, in the style of Pomeranz & Reddy [8] ("On Static
// Compaction of Test Sequences for Synchronous Sequential Circuits",
// DAC 1996): vectors are tentatively removed one at a time, and a
// removal is accepted iff fault simulation shows that every fault in a
// required set is still detected.
//
// The engine is used in two roles:
//
//   - Phase 2 of the paper's procedure: shorten the PI sequence T_SO of
//     the scan test (SI, T_SO) without losing any fault of F_SO;
//   - conditioning the raw sequential-ATPG sequence T_0 (the role the
//     paper assigns to the vector-restoration compactor [11]).
//
// Removals are tried from the last vector toward the first. Removing the
// vector at position p cannot disturb a detection that happened strictly
// before p (the prefix is unchanged), so only faults whose earliest
// surviving detection lies at or after p — plus faults detected only at
// the final scan-out — need re-simulation.
//
// The engine keeps that risk set exact with a detection ledger
// (fsim.Record): each trial's must-detect simulation records into a
// reusable buffer (fsim.ResumeMustInto), and an accepted removal
// refreshes the ledger rows from that record at no extra simulation
// cost, so a removal whose risk set is empty commits without any
// simulation at all and later trials simulate exactly the faults a
// removal could disturb.
//
// No risk fault is detected at a primary output before p, so a trial
// need not replay the prefix either. Each sweep starts with one
// checkpoint run (fsim.RecordCheckpoints) that grades the sequence and
// stores the risk candidates' machine states every few vectors; a
// trial at p resumes from the last checkpoint q <= p and simulates only
// cur[q:p]·cur[p+1:]. The sweep edits only positions after p, so the
// states it resumes from stay those of the current sequence. The tests
// check the result against a naive loop that re-checks the whole keep
// set on the reference simulator for every trial (ledger_test.go).
package vecomit

import (
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
)

// Options configures the omission loop.
type Options struct {
	// MaxPasses bounds the number of full sweeps over the sequence
	// (0 = default 2). The first sweep does nearly all of the work; a
	// second sweep catches removals enabled by earlier ones.
	MaxPasses int
}

func (o Options) withDefaults() Options {
	if o.MaxPasses == 0 {
		o.MaxPasses = 2
	}
	return o
}

// Stats reports what one compaction run did.
type Stats struct {
	Removed         int // vectors omitted
	Checks          int // trial simulations
	FreeRemovals    int // removals committed with an empty risk set, no simulation
	FaultsSimulated int // total fault slots across all trial simulations
}

// Add accumulates o into s (used by core to aggregate the per-iteration
// Phase 2 stats of one run).
func (s *Stats) Add(o Stats) {
	s.Removed += o.Removed
	s.Checks += o.Checks
	s.FreeRemovals += o.FreeRemovals
	s.FaultsSimulated += o.FaultsSimulated
}

// CompactTest shortens t's PI sequence while keeping every fault in keep
// detected by the scan test (scan-in, sequence, scan-out). It returns
// the compacted test. keep must be detected by t on entry; callers
// normally pass the detected set of t itself.
func CompactTest(s *fsim.Simulator, t scan.Test, keep *fault.Set, opt Options) (scan.Test, Stats) {
	seq, st := compact(s, t.SI, t.Seq, keep, true, opt)
	return scan.Test{SI: t.SI, Seq: seq}, st
}

// CompactSequence shortens a no-scan sequence (all-X initial state,
// primary-output detection only) while keeping every fault in keep
// detected.
func CompactSequence(s *fsim.Simulator, seq logic.Sequence, keep *fault.Set, opt Options) (logic.Sequence, Stats) {
	return compact(s, nil, seq, keep, false, opt)
}

// compact is the detection-ledger loop (see the package comment). The
// loop invariant: rec is the exact detection record of cur over keep —
// every keep fault's earliest PO-detecting position in cur, or the
// scan-out-only / undetected marker. A removal at p leaves positions
// < p untouched, so the exact risk set of the trial is the keep faults
// without a PO detection strictly before p; an accepted trial's
// must-detect record covers precisely those faults and re-establishes
// the invariant by overlay (fsim.Record.Merge). Each sweep's checkpoint
// run grades cur afresh, which gives rec again.
func compact(s *fsim.Simulator, si logic.Vector, seq logic.Sequence, keep *fault.Set, scanOut bool, opt Options) (logic.Sequence, Stats) {
	opt = opt.withDefaults()
	var st Stats
	if keep == nil || keep.Count() == 0 || len(seq) == 0 {
		return seq.Clone(), st
	}
	cur := seq.Clone()
	risk := fault.NewSet(keep.Len())
	// buf is the trial record, reused across trials: omission accepts
	// are frequent, so recording in the same pass as the check beats
	// re-simulating accepted trials. trial is the trial's sequence from
	// its checkpoint on, rebuilt in place for every trial.
	var buf *fsim.Record
	var trial logic.Sequence

	for pass := 0; pass < opt.MaxPasses; pass++ {
		rec, cps := s.RecordCheckpoints(cur, fsim.Options{Init: si, ScanOut: scanOut, Targets: keep})
		removedThisPass := 0
		for p := len(cur) - 1; p >= 0; p-- {
			if len(cur) == 1 && scanOut {
				break // a scan test keeps at least one vector
			}
			risk.Clear()
			keep.ForEach(func(f int) {
				if !rec.SafeBefore(f, p) {
					risk.Add(f)
				}
			})
			if risk.Count() == 0 {
				// Nothing the removal could disturb: commit without
				// simulating.
				cur = removeAt(cur, p)
				st.Removed++
				st.FreeRemovals++
				removedThisPass++
				continue
			}
			// No risk fault has a PO detection before p, so every one is
			// held at the checkpoint q.
			q := cps.Before(p)
			trial = append(append(trial[:0], cur[q:p]...), cur[p+1:]...)
			st.Checks++
			st.FaultsSimulated += risk.Count()
			var ok bool
			buf, ok = s.ResumeMustInto(buf, cps, q, trial, risk)
			if ok {
				cur = removeAt(cur, p)
				rec.Merge(buf)
				st.Removed++
				removedThisPass++
			}
		}
		if removedThisPass == 0 {
			break
		}
	}
	return cur, st
}

func removeAt(seq logic.Sequence, p int) logic.Sequence {
	return append(seq[:p], seq[p+1:]...)
}
