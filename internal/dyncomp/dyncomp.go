// Package dyncomp implements a dynamic test compaction baseline in the
// spirit of Lee & Saluja [2,3] ("An Algorithm to Reduce Test Application
// Time in Full Scan Designs"): instead of one scan operation per
// combinational test, each scan-in is followed by several primary-input
// vectors applied with the functional clock, trading scan cycles for
// functional cycles. A scan-in/scan-out pair costs N_SV cycles, so
// extending a test with up to N_SV functional vectors that pick up
// additional faults is never worse than starting a new test.
//
// The paper cites the [2,3] results rather than re-running the tools;
// this package regenerates that comparison column with the same
// algorithmic idea: greedy construction of tests from a combinational
// test set, extending each test while extra vectors keep detecting new
// faults (up to the N_SV budget).
//
// The engine grades each seed test with a detection record
// (fsim.Record) and exploits the prefix structure of the candidate
// extensions: every candidate replays the current test verbatim and
// appends one vector, so the faults the current test PO-detects are
// detected by every candidate and drop out of the candidate target sets.
// The candidates of one step share a run (fsim.RecordExtensions): each
// pass simulates the current test once and every candidate vector from
// the states it ends in. ledger_test.go checks it against a loop that
// re-grades every candidate cold.
package dyncomp

import (
	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/scan"
)

// Options configures the dynamic compactor.
type Options struct {
	// MaxExtension caps the functional vectors per test; 0 means N_SV
	// (the break-even point against a scan operation).
	MaxExtension int
	// CandidateLimit bounds how many candidate vectors are evaluated per
	// extension step (0 = default 24).
	CandidateLimit int
}

func (o Options) withDefaults(nsv int) Options {
	if o.MaxExtension == 0 {
		o.MaxExtension = nsv
	}
	if o.MaxExtension < 1 {
		o.MaxExtension = 1
	}
	if o.CandidateLimit == 0 {
		o.CandidateLimit = 24
	}
	return o
}

// Stats describes one run.
type Stats struct {
	Tests           int
	Extensions      int
	Candidates      int // candidate extension simulations
	FaultsSimulated int // total fault slots across candidate simulations
}

// Compact builds a scan test set covering every fault the combinational
// test set C covers, using dynamic extension. The vectors offered as
// extensions are the PI parts of C (the usual source of candidate
// vectors in dynamic compaction: each was generated to detect specific
// faults from a specific state, and often detects them from related
// states too).
//
// Per extension step the current test's record splits the remaining
// faults: the PO-detected ones (base) are detected by every candidate —
// each candidate replays the current sequence as its prefix, and
// appending a vector cannot disturb a primary-output detection inside
// the prefix — so candidates are graded only over remaining \ base and
// score base + |candidate detections|. Scan-out detections do not carry
// (the scan-out compare moves with the appended vector), which is
// exactly why they are left in the candidate target sets.
func Compact(s *fsim.Simulator, C []atpg.CombTest, opt Options) (*scan.Set, Stats) {
	opt = opt.withDefaults(s.Nsv())
	var st Stats
	remaining := coverageGoal(s, C)

	// Extending a test moves its scan-out, so the final test may detect
	// a different set than its seed; a test is credited only with what
	// its final form detects, and the seeding sweep repeats until the
	// goal is covered (every remaining fault has a length-1 seed in C,
	// so each sweep that finds any payable seed makes progress).
	out := scan.NewSet()
	// The current step's candidate vectors and their records, reused
	// from step to step: the best record is merged into the test's
	// before the next step.
	var cands []logic.Vector
	var recs []*fsim.Record
	progress := true
	for remaining.Count() > 0 && progress {
		progress = false
		for ci := 0; ci < len(C) && remaining.Count() > 0; ci++ {
			curRec := s.Record(logic.Sequence{C[ci].PI},
				fsim.Options{Init: C[ci].State, ScanOut: true, Targets: remaining})
			cur := curRec.Detected()
			if cur.Count() == 0 {
				continue
			}
			test := C[ci].ScanTest()

			for test.Len() < opt.MaxExtension {
				// base: remaining faults the current test PO-detects —
				// guaranteed detected by every candidate extension.
				base := fault.NewSet(s.NumFaults())
				cur.ForEach(func(f int) {
					if curRec.PODetected(f) {
						base.Add(f)
					}
				})
				rest2 := remaining.Clone()
				rest2.SubtractWith(base)

				// Greedy argmax in candidate order, strict improvement
				// over the current detection count (base and the
				// candidate detections are disjoint, so counts simply
				// add).
				cands = cands[:0]
				for cj := ci + 1; cj < len(C) && cj <= ci+opt.CandidateLimit; cj++ {
					cands = append(cands, C[cj].PI)
				}
				bestCount := cur.Count()
				var bestVec logic.Vector
				var bestRec *fsim.Record
				recs = s.RecordExtensions(recs, test.SI, test.Seq, cands, rest2)
				for i, rec := range recs {
					st.Candidates++
					st.FaultsSimulated += rest2.Count()
					if got := base.Count() + rec.Detected().Count(); got > bestCount {
						bestCount, bestVec, bestRec = got, cands[i], rec
					}
				}
				if bestRec == nil {
					break
				}
				test.Seq = append(test.Seq, bestVec.Clone())
				// The accepted candidate's record over rest2 plus the
				// carried PO detections is the exact record of the
				// extended test over remaining.
				newRec := curRec.PrefixCarry(len(test.Seq))
				newRec.Merge(bestRec)
				curRec = newRec
				cur = curRec.Detected()
				st.Extensions++
			}

			remaining.SubtractWith(cur)
			out.Tests = append(out.Tests, test)
			st.Tests++
			progress = true
		}
	}
	return out, st
}

// coverageGoal computes everything C detects as length-1 scan tests.
// Drop-on-detect: faults already credited to an earlier test are
// excluded from the remaining simulations (the union is unchanged).
func coverageGoal(s *fsim.Simulator, C []atpg.CombTest) *fault.Set {
	remaining := fault.NewSet(s.NumFaults())
	undecided := fault.NewFullSet(s.NumFaults())
	for _, t := range C {
		got := s.DetectTest(t.State, logic.Sequence{t.PI}, undecided)
		remaining.UnionWith(got)
		undecided.SubtractWith(got)
	}
	return remaining
}
